//! **Knob tables**: every config type lists its tunables exactly once.
//!
//! A knob is one row — a name and a typed [`Slot`] borrowing the field
//! it sets — in the list [`Knobs::knobs`] returns. Everything that
//! reads or writes knobs by name walks those rows: `gossip-core`'s JSON
//! codec (rendering, overrides, the error messages naming valid keys)
//! and [`crate::Topology::parse_spec`]'s positional `--topo` knobs. A
//! knob's range lives in its type's [`Knobs::validate`], which the codec
//! runs after every apply.
//!
//! A tagged enum ([`crate::Topology`], [`crate::Engine`],
//! [`crate::Latency`]) also lists its kinds once, in a table of `Kind`
//! rows next to the type: the tag value, the value a bare tag builds
//! (whose knobs are the CLI defaults) and the `--list-*` catalog line.
//! Its [`Tag`] and the CLI catalog are read off that table.
//!
//! The rows are plain Rust — a `match` or a `vec!` of `(name, slot)`
//! pairs per type — so adding a knob means adding one row.

use std::fmt::Debug;
use std::mem::discriminant;

use crate::failure::FailurePlan;

/// A typed, mutable view of one config field: the slot half of a knob
/// row.
#[derive(Debug)]
pub enum Slot<'a> {
    /// A real number.
    F64(&'a mut f64),
    /// A 32-bit integer.
    U32(&'a mut u32),
    /// A full-width integer (JSON carries values above 2^53 as decimal
    /// strings, since its numbers are doubles).
    U64(&'a mut u64),
    /// A full-width integer that may be unset (`null`).
    OptU64(&'a mut Option<u64>),
    /// A size that may be unset (`null`); travels like [`Slot::U64`].
    OptUsize(&'a mut Option<usize>),
    /// A list of node indices.
    U32s(&'a mut Vec<u32>),
    /// One neighbor list per node.
    Rows(&'a mut Vec<Vec<u32>>),
    /// The time-0 failure plan, as its failed node indices.
    Failures(&'a mut FailurePlan),
    /// A file path.
    Str(&'a mut String),
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
/// key it sits under (`"churn"`, `"c2"`) and a top-level one by whatever
/// applies it (an algorithm passes its registry name).
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

    /// A tagged enum's [`Tag`]; `None` for a plain struct.
    fn tag(&self) -> Option<Tag> {
        None
    }

    /// Replaces a tagged enum with the default of kind `i` of its
    /// [`Tag`] (a no-op for a plain struct).
    fn set_kind(&mut self, _i: usize) {}
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

/// One row of a tagged enum's kind table.
#[derive(Debug)]
pub(crate) struct Kind<T> {
    /// The kind's tag value in JSON (`"random_regular"`, `"async"`).
    pub(crate) name: &'static str,
    /// The value a bare tag builds; its knobs are the CLI defaults.
    pub(crate) default: T,
    /// The CLI spec and its one-line description, or `("", "")` for a
    /// kind the CLI does not offer.
    pub(crate) catalog: (&'static str, &'static str),
}

/// The tag of a tagged config enum, as the codec sees it.
#[derive(Debug)]
pub struct Tag {
    /// The JSON key carrying the kind (`"kind"`, `"mode"`).
    pub key: &'static str,
    /// Every row's kind name, in table order. Rows may share a name
    /// (the three async engine profiles are all mode `"async"`); the
    /// first row of a name is the one a bare tag builds.
    pub kinds: Vec<&'static str>,
    /// Index of the current value's kind.
    pub current: usize,
    /// Whether an override must give every knob of its kind; otherwise
    /// omitted knobs keep the kind's defaults.
    pub all_required: bool,
}

impl Tag {
    /// The tag of `value` under its kind `table`.
    #[must_use]
    pub(crate) fn of<T>(key: &'static str, table: &[Kind<T>], value: &T, required: bool) -> Tag {
        Tag {
            key,
            kinds: table.iter().map(|k| k.name).collect(),
            current: kind_index(table, value),
            all_required: required,
        }
    }
}

/// Index of the first row of `table` with `value`'s variant.
///
/// # Panics
///
/// Panics if `table` has no row for that variant.
#[must_use]
pub(crate) fn kind_index<T>(table: &[Kind<T>], value: &T) -> usize {
    table
        .iter()
        .position(|k| discriminant(&k.default) == discriminant(value))
        .expect("every variant has a kind row")
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
