//! Memory requests exchanged between the cache hierarchy and the controller.

use bard_image::{ImageError, Io};

use crate::address::DecodedAddr;

/// Unique identifier assigned by the requester (the simulator core).
pub type RequestId = u64;

/// The kind of a memory request.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum RequestKind {
    /// Demand or prefetch read (cache-line fill), including RFOs.
    #[default]
    Read,
    /// Write-back of a dirty cache line.
    Write,
}

/// A single cache-line-sized memory request.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemRequest {
    /// Requester-assigned identifier; echoed back on completion for reads.
    pub id: RequestId,
    /// Read or write.
    pub kind: RequestKind,
    /// Physical address of the line.
    pub addr: u64,
    /// Core that generated the request (for statistics / fairness analyses).
    pub core: usize,
    /// Cycle at which the request entered the controller queue.
    pub enqueue_cycle: u64,
    /// Decoded DRAM coordinates (filled in by the controller on enqueue).
    pub decoded: DecodedAddr,
}

impl MemRequest {
    /// Creates a new request. The decoded address is computed by the
    /// controller when the request is enqueued.
    #[must_use]
    pub fn new(id: RequestId, kind: RequestKind, addr: u64, core: usize) -> Self {
        Self { id, kind, addr, core, enqueue_cycle: 0, decoded: DecodedAddr::default() }
    }

    /// Convenience constructor for a read.
    #[must_use]
    pub fn read(id: RequestId, addr: u64, core: usize) -> Self {
        Self::new(id, RequestKind::Read, addr, core)
    }

    /// Convenience constructor for a write-back.
    #[must_use]
    pub fn write(id: RequestId, addr: u64, core: usize) -> Self {
        Self::new(id, RequestKind::Write, addr, core)
    }

    /// True if this is a write-back.
    #[must_use]
    pub fn is_write(&self) -> bool {
        self.kind == RequestKind::Write
    }
}

/// A completed read returned to the requester.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompletedRead {
    /// The identifier supplied at enqueue time.
    pub id: RequestId,
    /// Physical address of the line.
    pub addr: u64,
    /// Core that issued the request.
    pub core: usize,
    /// Cycle at which the data is available: when it left the DRAM, plus
    /// the controller latency once the controller delivers it.
    pub ready_cycle: u64,
}

impl CompletedRead {
    /// Codes the completion (snapshot images).
    pub(crate) fn image(&mut self, io: &mut impl Io) -> Result<(), ImageError> {
        io.u64(&mut self.id)?;
        io.u64(&mut self.addr)?;
        io.usize(&mut self.core)?;
        io.u64(&mut self.ready_cycle)
    }
}

/// Error returned when a request cannot be accepted by the controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnqueueError {
    /// The target read queue is full; retry later.
    ReadQueueFull,
    /// The target write queue is full; retry later.
    WriteQueueFull,
    /// The address decodes to a channel this controller does not own.
    WrongChannel {
        /// Channel the address maps to.
        expected: usize,
        /// Channel this controller serves.
        actual: usize,
    },
}

impl std::fmt::Display for EnqueueError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::ReadQueueFull => write!(f, "read queue full"),
            Self::WriteQueueFull => write!(f, "write queue full"),
            Self::WrongChannel { expected, actual } => {
                write!(f, "address maps to channel {expected} but controller serves {actual}")
            }
        }
    }
}

impl std::error::Error for EnqueueError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_set_kind() {
        assert!(!MemRequest::read(1, 0x40, 0).is_write());
        assert!(MemRequest::write(2, 0x80, 1).is_write());
    }

    #[test]
    fn enqueue_error_displays() {
        let e = EnqueueError::WrongChannel { expected: 1, actual: 0 };
        assert!(e.to_string().contains("channel 1"));
        assert!(EnqueueError::ReadQueueFull.to_string().contains("read"));
        assert!(EnqueueError::WriteQueueFull.to_string().contains("write"));
    }
}
