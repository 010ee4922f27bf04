//! JSON goes through `gossip_core::Value`, the codec the repo already has
//! (insertion-ordered objects, `parse(render(v)) == v`); counts travel as
//! `f64` (every one the benchmark writes is below 2^53) and digests as hex
//! strings.

pub use gossip_core::Value as Json;

/// The items of an array (empty for any other value).
#[must_use]
pub fn items(v: &Json) -> &[Json] {
    match v {
        Json::Arr(items) => items,
        _ => &[],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn items_of_arrays_only() {
        let doc = Json::parse("{\"a\": [1, 2]}").unwrap();
        assert_eq!(items(doc.get("a").unwrap()).len(), 2);
        assert!(items(&doc).is_empty());
    }
}
