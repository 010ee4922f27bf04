//! **Knob tables**: every algorithm config lists its tunables exactly
//! once.
//!
//! A knob is one row — a name and a typed [`Slot`] borrowing the field
//! it sets — in the list [`Knobs::knobs`] returns. Everything that
//! reads or writes knobs by name walks those rows: `gossip-core`'s JSON
//! codec for algorithm tunables (rendering, overrides, the error
//! messages naming valid keys) and [`crate::Topology::parse_spec`]'s
//! positional `--topo` knobs. A knob's range lives in its type's
//! [`Knobs::validate`], which the codec runs after every apply.
//!
//! The environment configs ([`crate::ChurnConfig`],
//! [`crate::TrafficConfig`], [`crate::Engine`]) have no knob rows: they
//! are set in code or through the CLI specs, and each validates itself
//! through an inherent `validate`. [`crate::Topology`] and
//! [`crate::Engine`] list their CLI kinds once, in a table of `Kind`
//! rows next to the type: the value a bare spec builds (whose knobs are
//! the CLI defaults) and the `--list-*` catalog line.
//!
//! The rows are plain Rust — a `match` or a `vec!` of `(name, slot)`
//! pairs per type — so adding a knob means adding one row.

use std::fmt::Debug;

/// A typed, mutable view of one config field: the slot half of a knob
/// row.
#[derive(Debug)]
pub enum Slot<'a> {
    /// A real number.
    F64(&'a mut f64),
    /// A 32-bit integer.
    U32(&'a mut u32),
    /// A size that may be unset (`null`). JSON carries values above
    /// 2^53 as decimal strings, since its numbers are doubles.
    OptUsize(&'a mut Option<usize>),
    /// One of a few labels.
    Choice(&'a mut dyn Choice),
    /// A nested config with knobs of its own.
    Nested(&'a mut dyn Knobs),
}

/// One knob row: the knob's name and its slot.
pub type Knob<'a> = (&'static str, Slot<'a>);

/// A config type whose tunables are listed once, as knob rows.
///
/// A config has no name of its own: messages call a nested config by the
/// key it sits under (`"c2"`) and a top-level one by whatever applies it
/// (an algorithm passes its registry name).
pub trait Knobs: Debug {
    /// The knob rows of the current value, in rendering order. A tagged
    /// enum lists the knobs of its current kind.
    fn knobs(&mut self) -> Vec<Knob<'_>>;

    /// Validates every knob, naming the offending one in the error.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first out-of-range knob.
    fn validate(&self) -> Result<(), String> {
        Ok(())
    }
}

/// The config with no knobs: an algorithm without tunables of its own.
impl Knobs for () {
    fn knobs(&mut self) -> Vec<Knob<'_>> {
        Vec::new()
    }
}

/// A knob whose value is one of a few labels.
pub trait Choice: Debug {
    /// The current label.
    fn label(&self) -> &'static str;

    /// Sets the value from a label.
    ///
    /// # Errors
    ///
    /// Returns a message naming the valid labels.
    fn choose(&mut self, label: &str) -> Result<(), String>;
}

/// One row of a CLI kind table.
#[derive(Debug)]
pub(crate) struct Kind<T> {
    /// The value a bare spec builds; its knobs are the CLI defaults.
    pub(crate) default: T,
    /// The CLI spec and its one-line description.
    pub(crate) catalog: (&'static str, &'static str),
}

/// Case- and separator-insensitive key: `"push-pull"`, `"push_pull"`
/// and `"PushPull"` all name the same registry entry, and so do
/// `"random-regular"` and `"RandomRegular"`.
#[must_use]
pub fn normalize(name: &str) -> String {
    name.chars()
        .filter(|c| *c != '-' && *c != '_')
        .map(|c| c.to_ascii_lowercase())
        .collect()
}
