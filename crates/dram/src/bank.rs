//! Per-bank state and timing trackers.

use bard_image::{opt, ImageError, Io};

/// State of a single DRAM bank: the open row (if any) plus the earliest cycle
/// at which each command class may next be issued to this bank.
///
/// All times are absolute CPU cycles; a value of 0 means "immediately".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BankState {
    /// Currently open row, if the bank is activated.
    pub open_row: Option<u64>,
    /// Earliest cycle an ACT may issue (constrained by tRP after a PRE and by
    /// refresh).
    pub act_ok_at: u64,
    /// Earliest cycle a PRE may issue (constrained by tRAS, tRTP and tWR).
    pub pre_ok_at: u64,
    /// Earliest cycle a column command (RD/WR) may issue (constrained by tRCD).
    pub cas_ok_at: u64,
    /// When set, the bank should be auto-precharged as soon as `pre_ok_at`
    /// allows (adaptive open-page policy decided the row is dead).
    pub auto_precharge: bool,
}

impl BankState {
    /// A fresh, precharged bank.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// True if the bank has `row` open.
    #[must_use]
    pub fn is_row_hit(&self, row: u64) -> bool {
        self.open_row == Some(row)
    }

    /// True if the bank is precharged (no open row).
    #[must_use]
    pub fn is_closed(&self) -> bool {
        self.open_row.is_none()
    }

    /// True if accessing `row` requires closing another row first.
    #[must_use]
    pub fn is_row_conflict(&self, row: u64) -> bool {
        matches!(self.open_row, Some(open) if open != row)
    }

    /// Records an ACT issued at `now` for `row`.
    pub fn activate(&mut self, now: u64, row: u64, t_rcd: u64, t_ras: u64) {
        debug_assert!(self.is_closed(), "ACT issued to a bank with an open row");
        self.open_row = Some(row);
        self.cas_ok_at = self.cas_ok_at.max(now + t_rcd);
        self.pre_ok_at = self.pre_ok_at.max(now + t_ras);
        self.auto_precharge = false;
    }

    /// Records a PRE issued at `now`.
    pub fn precharge(&mut self, now: u64, t_rp: u64) {
        self.open_row = None;
        self.act_ok_at = self.act_ok_at.max(now + t_rp);
        self.auto_precharge = false;
    }

    /// Records a read column command issued at `now`.
    pub fn read(&mut self, now: u64, t_rtp: u64) {
        self.pre_ok_at = self.pre_ok_at.max(now + t_rtp);
    }

    /// Records a write column command issued at `now`. `write_recovery` is
    /// `CWL + burst + tWR` (in CPU cycles), i.e. the delay from the write
    /// command until a precharge may follow.
    pub fn write(&mut self, now: u64, write_recovery: u64) {
        self.pre_ok_at = self.pre_ok_at.max(now + write_recovery);
    }

    /// Codes the bank (snapshot images).
    pub(crate) fn image(&mut self, io: &mut impl Io) -> Result<(), ImageError> {
        opt(io, &mut self.open_row, Io::u64)?;
        io.u64(&mut self.act_ok_at)?;
        io.u64(&mut self.pre_ok_at)?;
        io.u64(&mut self.cas_ok_at)?;
        io.bool(&mut self.auto_precharge)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_bank_is_closed_and_ready() {
        let b = BankState::new();
        assert!(b.is_closed());
        assert_eq!(b.act_ok_at, 0);
        assert!(!b.is_row_hit(3));
        assert!(!b.is_row_conflict(3));
    }

    #[test]
    fn activate_opens_row_and_blocks_cas_until_trcd() {
        let mut b = BankState::new();
        b.activate(100, 7, 65, 130);
        assert!(b.is_row_hit(7));
        assert!(b.is_row_conflict(8));
        assert_eq!(b.cas_ok_at, 165);
        assert_eq!(b.pre_ok_at, 230);
    }

    #[test]
    fn precharge_closes_row_and_blocks_act_until_trp() {
        let mut b = BankState::new();
        b.activate(0, 1, 65, 130);
        b.precharge(200, 65);
        assert!(b.is_closed());
        assert_eq!(b.act_ok_at, 265);
    }

    #[test]
    fn write_extends_precharge_window() {
        let mut b = BankState::new();
        b.activate(0, 1, 65, 130);
        b.write(50, 200);
        assert_eq!(b.pre_ok_at, 250);
        // A later, shorter constraint does not shrink the window.
        b.read(60, 30);
        assert_eq!(b.pre_ok_at, 250);
    }
}
