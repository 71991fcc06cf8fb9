//! Instruction-trace representation.
//!
//! Traces are ChampSim-like: a sequence of records, each describing one
//! instruction that may carry a single memory access, preceded by a number of
//! non-memory "bubble" instructions. Workload generators (the
//! `bard-workloads` crate) implement [`TraceSource`] and produce records on
//! demand, so traces never need to be materialised on disk.

use bard_image::{ImageError, Io};

/// Kind of memory access carried by an instruction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum MemKind {
    /// A load (read).
    #[default]
    Load,
    /// A store (write).
    Store,
}

/// A memory access: kind plus byte address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemAccess {
    /// Load or store.
    pub kind: MemKind,
    /// Byte address accessed.
    pub addr: u64,
}

impl MemAccess {
    /// Creates a load access.
    #[must_use]
    pub fn load(addr: u64) -> Self {
        Self { kind: MemKind::Load, addr }
    }

    /// Creates a store access.
    #[must_use]
    pub fn store(addr: u64) -> Self {
        Self { kind: MemKind::Store, addr }
    }

    /// True for stores.
    #[must_use]
    pub fn is_store(&self) -> bool {
        self.kind == MemKind::Store
    }
}

/// One trace record: `bubble` non-memory instructions followed by one
/// instruction at `ip` that optionally performs `access`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct TraceRecord {
    /// Instruction pointer of the (final) instruction in this record.
    pub ip: u64,
    /// Number of non-memory instructions preceding the final instruction.
    pub bubble: u32,
    /// Optional memory access performed by the final instruction.
    pub access: Option<MemAccess>,
}

impl TraceRecord {
    /// A record of `bubble + 1` pure-compute instructions.
    #[must_use]
    pub fn compute(ip: u64, bubble: u32) -> Self {
        Self { ip, bubble, access: None }
    }

    /// A record ending in a load.
    #[must_use]
    pub fn load(ip: u64, bubble: u32, addr: u64) -> Self {
        Self { ip, bubble, access: Some(MemAccess::load(addr)) }
    }

    /// A record ending in a store.
    #[must_use]
    pub fn store(ip: u64, bubble: u32, addr: u64) -> Self {
        Self { ip, bubble, access: Some(MemAccess::store(addr)) }
    }

    /// Total instructions represented by this record.
    #[must_use]
    pub fn instructions(&self) -> u64 {
        u64::from(self.bubble) + 1
    }

    /// Codes the record (snapshot images), its access a tag (0 = none,
    /// 1 = load, 2 = store) followed by the address when there is one.
    pub(crate) fn image(&mut self, io: &mut impl Io) -> Result<(), ImageError> {
        io.u64(&mut self.ip)?;
        io.u32(&mut self.bubble)?;
        let mut tag = self.access.map_or(0, |a| 1 + u8::from(a.is_store()));
        io.tag(&mut tag, 2, "access tag")?;
        let mut addr = self.access.map_or(0, |a| a.addr);
        if tag > 0 {
            io.u64(&mut addr)?;
        }
        self.access = match tag {
            0 => None,
            1 => Some(MemAccess::load(addr)),
            _ => Some(MemAccess::store(addr)),
        };
        Ok(())
    }
}

/// A source of trace records. Sources are infinite: generators wrap around
/// their working set so any number of instructions can be simulated.
pub trait TraceSource: Send {
    /// Produces the next record.
    fn next_record(&mut self) -> TraceRecord;

    /// Advances past the next `n` records, leaving the source exactly where
    /// `n` calls of [`TraceSource::next_record`] would. The default makes
    /// those calls ([`skip_by_reading`]); a source that can seek overrides
    /// it.
    fn skip(&mut self, n: u64) {
        skip_by_reading(self, n);
    }

    /// A short name identifying the workload (for reports).
    fn name(&self) -> &str;
}

/// Advances `source` past `n` records by reading and dropping each one: the
/// exact, O(n) default of [`TraceSource::skip`], and what a seeking override
/// falls back to for a skip it cannot seek.
pub fn skip_by_reading<S: TraceSource + ?Sized>(source: &mut S, n: u64) {
    for _ in 0..n {
        let _ = source.next_record();
    }
}

impl<T: TraceSource + ?Sized> TraceSource for Box<T> {
    fn next_record(&mut self) -> TraceRecord {
        (**self).next_record()
    }

    fn skip(&mut self, n: u64) {
        (**self).skip(n);
    }

    fn name(&self) -> &str {
        (**self).name()
    }
}

/// A trace source that replays a fixed vector of records in a loop.
#[derive(Debug, Clone)]
pub struct VecTrace {
    name: String,
    records: Vec<TraceRecord>,
    position: usize,
}

impl VecTrace {
    /// Creates a looping trace from `records`.
    ///
    /// # Panics
    ///
    /// Panics if `records` is empty.
    #[must_use]
    pub fn new(name: impl Into<String>, records: Vec<TraceRecord>) -> Self {
        assert!(!records.is_empty(), "a VecTrace needs at least one record");
        Self { name: name.into(), records, position: 0 }
    }

    /// Number of records before the trace loops.
    #[must_use]
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Always false: construction requires at least one record.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }
}

impl TraceSource for VecTrace {
    fn next_record(&mut self) -> TraceRecord {
        let record = self.records[self.position];
        self.position = (self.position + 1) % self.records.len();
        record
    }

    fn name(&self) -> &str {
        &self.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_instruction_counts() {
        assert_eq!(TraceRecord::compute(0x400, 3).instructions(), 4);
        assert_eq!(TraceRecord::load(0x400, 0, 0x1000).instructions(), 1);
    }

    #[test]
    fn vec_trace_loops() {
        let mut t = VecTrace::new(
            "loop",
            vec![TraceRecord::load(1, 0, 0x40), TraceRecord::store(2, 1, 0x80)],
        );
        assert_eq!(t.len(), 2);
        let a = t.next_record();
        let b = t.next_record();
        let c = t.next_record();
        assert_eq!(a.ip, 1);
        assert_eq!(b.ip, 2);
        assert_eq!(c, a);
        assert_eq!(t.name(), "loop");
    }

    #[test]
    #[should_panic(expected = "at least one record")]
    fn empty_vec_trace_panics() {
        let _ = VecTrace::new("empty", Vec::new());
    }

    #[test]
    fn mem_access_constructors() {
        assert!(MemAccess::store(4).is_store());
        assert!(!MemAccess::load(4).is_store());
    }

    #[test]
    fn boxed_sources_are_sources_too() {
        let mut boxed: Box<dyn TraceSource> =
            Box::new(VecTrace::new("boxed", vec![TraceRecord::load(1, 0, 0x40)]));
        assert_eq!(boxed.next_record().ip, 1);
        assert_eq!(TraceSource::name(&boxed), "boxed");
    }
}
