//! STREAM kernel trace generators (McCalpin).
//!
//! The four kernels — copy, scale, add, triad — are generated from their real
//! access patterns: the arrays are walked sequentially, element by element,
//! with the loads and stores each element performs. Arrays are sized far
//! beyond the LLC so that, as on real hardware, every line is a miss and each
//! written line eventually produces a write-back.

use bard_cpu::{TraceRecord, TraceSource};

/// Which STREAM kernel to generate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StreamKind {
    /// `c[i] = a[i]`
    Copy,
    /// `b[i] = s * c[i]`
    Scale,
    /// `a[i] = b[i] + c[i]`
    Add,
    /// `a[i] = b[i] + s * c[i]`
    Triad,
}

impl StreamKind {
    /// Paper workload name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Copy => "copy",
            Self::Scale => "scale",
            Self::Add => "add",
            Self::Triad => "triad",
        }
    }
}

/// A STREAM kernel trace source.
#[derive(Debug, Clone)]
pub struct StreamKernel {
    kind: StreamKind,
    /// Base addresses of arrays a, b, c.
    bases: [u64; 3],
    /// Elements per array.
    elements: u64,
    /// Bytes per element.
    element_bytes: u64,
    /// Non-memory instructions inserted per memory operation.
    bubble: u32,
    /// Current element index.
    index: u64,
    /// Which access within the element is next (0..loads+1).
    phase: usize,
    name: String,
}

impl StreamKernel {
    /// Default array size: 32 MiB per array (well beyond the 16 MiB LLC).
    pub const DEFAULT_ARRAY_BYTES: u64 = 32 * 1024 * 1024;

    /// Creates a kernel with the default array size. `core_id` offsets the
    /// arrays so that different cores in rate mode do not share data.
    #[must_use]
    pub fn new(kind: StreamKind, core_id: usize) -> Self {
        Self::with_array_bytes(kind, core_id, Self::DEFAULT_ARRAY_BYTES)
    }

    /// Creates a kernel with a custom per-array footprint.
    ///
    /// # Panics
    ///
    /// Panics if `array_bytes` is smaller than one element (8 bytes).
    #[must_use]
    pub fn with_array_bytes(kind: StreamKind, core_id: usize, array_bytes: u64) -> Self {
        let element_bytes = 8;
        assert!(array_bytes >= element_bytes, "arrays must hold at least one element");
        // Private 1 TiB region per core keeps rate-mode copies disjoint.
        let core_base = 0x100_0000_0000u64 * core_id as u64 + 0x1000_0000;
        Self {
            kind,
            bases: [core_base, core_base + 2 * array_bytes, core_base + 4 * array_bytes],
            elements: array_bytes / element_bytes,
            element_bytes,
            bubble: 2,
            index: 0,
            phase: 0,
            name: kind.name().to_string(),
        }
    }

    /// The kernel kind.
    #[must_use]
    pub fn kind(&self) -> StreamKind {
        self.kind
    }

    fn element_addr(&self, array: usize, index: u64) -> u64 {
        self.bases[array] + index * self.element_bytes
    }

    /// (source arrays, destination array) for the kernel.
    fn roles(&self) -> (&'static [usize], usize) {
        match self.kind {
            StreamKind::Copy => (&[0], 2),   // c <- a
            StreamKind::Scale => (&[2], 1),  // b <- c
            StreamKind::Add => (&[1, 2], 0), // a <- b + c
            StreamKind::Triad => (&[1, 2], 0),
        }
    }
}

impl TraceSource for StreamKernel {
    fn next_record(&mut self) -> TraceRecord {
        let (sources, dest) = self.roles();
        let loads = sources.len();
        let ip_base = 0x40_0000 + (self.kind as u64) * 0x100;
        let record = if self.phase < loads {
            let addr = self.element_addr(sources[self.phase], self.index);
            TraceRecord::load(ip_base + self.phase as u64 * 8, self.bubble, addr)
        } else {
            let addr = self.element_addr(dest, self.index);
            TraceRecord::store(ip_base + 0x40, self.bubble, addr)
        };
        self.phase += 1;
        if self.phase > loads {
            self.phase = 0;
            self.index = (self.index + 1) % self.elements;
        }
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
    fn copy_alternates_load_and_store() {
        let mut k = StreamKernel::new(StreamKind::Copy, 0);
        let r1 = k.next_record();
        let r2 = k.next_record();
        assert!(!r1.access.unwrap().is_store());
        assert!(r2.access.unwrap().is_store());
    }

    #[test]
    fn add_issues_two_loads_per_store() {
        let mut k = StreamKernel::new(StreamKind::Add, 0);
        let kinds: Vec<bool> = (0..6).map(|_| k.next_record().access.unwrap().is_store()).collect();
        assert_eq!(kinds, vec![false, false, true, false, false, true]);
    }

    #[test]
    fn addresses_advance_sequentially() {
        let mut k = StreamKernel::new(StreamKind::Copy, 0);
        let a0 = k.next_record().access.unwrap().addr;
        let _s0 = k.next_record();
        let a1 = k.next_record().access.unwrap().addr;
        assert_eq!(a1, a0 + 8);
    }

    #[test]
    fn different_cores_use_disjoint_arrays() {
        let mut k0 = StreamKernel::new(StreamKind::Triad, 0);
        let mut k1 = StreamKernel::new(StreamKind::Triad, 1);
        let a0 = k0.next_record().access.unwrap().addr;
        let a1 = k1.next_record().access.unwrap().addr;
        assert!(a0.abs_diff(a1) >= 0x100_0000_0000);
    }

    #[test]
    fn trace_wraps_around_the_array() {
        let mut k = StreamKernel::with_array_bytes(StreamKind::Copy, 0, 64);
        // 8 elements, 2 records each = 16 records per pass.
        let first = k.next_record().access.unwrap().addr;
        for _ in 0..15 {
            k.next_record();
        }
        let wrapped = k.next_record().access.unwrap().addr;
        assert_eq!(first, wrapped);
    }

    #[test]
    fn names_match_paper() {
        assert_eq!(StreamKind::Copy.name(), "copy");
        assert_eq!(StreamKind::Triad.name(), "triad");
        let k = StreamKernel::new(StreamKind::Scale, 0);
        assert_eq!(k.name(), "scale");
        assert_eq!(k.kind(), StreamKind::Scale);
    }
}
