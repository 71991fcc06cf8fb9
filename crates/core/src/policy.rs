//! LLC writeback-policy selection and statistics.

use bard_image::{ImageError, Io};

/// Which last-level-cache writeback policy to simulate.
///
/// `Baseline` is the conventional replacement-policy-only LLC of Table II.
/// The three BARD variants are the paper's contribution (Sections IV and V);
/// Eager Writeback and Virtual Write Queue are the prior-work comparison
/// points of Section VI.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum WritePolicyKind {
    /// Conventional LLC: evict the replacement-policy victim, write back if
    /// dirty.
    #[default]
    Baseline,
    /// BARD-E (eviction-based): when the victim is dirty and maps to a bank
    /// with a pending write, evict a different dirty line that improves BLP.
    BardE,
    /// BARD-C (cleansing-based): when the victim is clean, proactively write
    /// back a dirty line that improves BLP (without evicting it).
    BardC,
    /// BARD-H (hybrid): BARD-E when the victim is dirty, BARD-C otherwise.
    BardH,
    /// Eager Writeback [Lee et al., MICRO 2000]: proactively write back the
    /// LRU line if it is dirty, without considering banks.
    EagerWriteback,
    /// Virtual Write Queue [Stuecheli et al., ISCA 2010]: on a dirty
    /// eviction, proactively write back other dirty lines mapping to the same
    /// DRAM row (chasing row-buffer hits).
    VirtualWriteQueue,
}

impl WritePolicyKind {
    /// Short label used in reports and figures.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Self::Baseline => "baseline",
            Self::BardE => "bard-e",
            Self::BardC => "bard-c",
            Self::BardH => "bard-h",
            Self::EagerWriteback => "ew",
            Self::VirtualWriteQueue => "vwq",
        }
    }

    /// Parses a label produced by [`label`](Self::label).
    #[must_use]
    pub fn from_label(label: &str) -> Option<Self> {
        [
            Self::Baseline,
            Self::BardE,
            Self::BardC,
            Self::BardH,
            Self::EagerWriteback,
            Self::VirtualWriteQueue,
        ]
        .into_iter()
        .find(|p| p.label() == label)
    }

    /// True for any BARD variant.
    #[must_use]
    pub fn is_bard(self) -> bool {
        matches!(self, Self::BardE | Self::BardC | Self::BardH)
    }
}

impl std::fmt::Display for WritePolicyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Statistics about the LLC writeback policy's decisions, used by Figure 10
/// (bottom), Table VIII and the Section VII-I accuracy analysis.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PolicyStats {
    /// LLC fills that had to evict a valid line.
    pub evictions: u64,
    /// Evictions whose replacement-policy victim was dirty.
    pub dirty_victim_evictions: u64,
    /// Evictions where BARD-E overrode the victim choice.
    pub overrides: u64,
    /// Proactive write-backs (cleanses) performed by BARD-C, Eager Writeback
    /// or the Virtual Write Queue.
    pub cleanses: u64,
    /// BARD decisions (overrides + cleanses) that were checked against the
    /// memory controller's write queues.
    pub checked_decisions: u64,
    /// Checked decisions whose chosen bank actually had a pending write in a
    /// WRQ (the BLP-Tracker was wrong).
    pub incorrect_decisions: u64,
    /// Write-backs sent towards DRAM (dirty evictions + cleanses).
    pub writebacks: u64,
}

impl PolicyStats {
    /// Fraction of evictions in which BARD-E overrode the victim (Figure 10
    /// bottom, "Overrides by BARD-E").
    #[must_use]
    pub fn override_fraction(&self) -> f64 {
        ratio(self.overrides, self.evictions)
    }

    /// Fraction of evictions accompanied by a BARD-C cleanse (Figure 10
    /// bottom, "Cleanses by BARD-C").
    #[must_use]
    pub fn cleanse_fraction(&self) -> f64 {
        ratio(self.cleanses, self.evictions)
    }

    /// Fraction of evictions untouched by BARD (plain LRU evictions).
    #[must_use]
    pub fn plain_fraction(&self) -> f64 {
        (1.0 - self.override_fraction() - self.cleanse_fraction()).max(0.0)
    }

    /// Fraction of BARD decisions that picked a bank which did have a pending
    /// write in the WRQ (Section VII-I reports ~30%).
    #[must_use]
    pub fn incorrect_decision_fraction(&self) -> f64 {
        ratio(self.incorrect_decisions, self.checked_decisions)
    }

    /// Merges another set of counters into this one.
    pub fn merge(&mut self, other: &PolicyStats) {
        self.evictions += other.evictions;
        self.dirty_victim_evictions += other.dirty_victim_evictions;
        self.overrides += other.overrides;
        self.cleanses += other.cleanses;
        self.checked_decisions += other.checked_decisions;
        self.incorrect_decisions += other.incorrect_decisions;
        self.writebacks += other.writebacks;
    }

    /// Codes the counters (snapshot images).
    pub(crate) fn image(&mut self, io: &mut impl Io) -> Result<(), ImageError> {
        io.u64(&mut self.evictions)?;
        io.u64(&mut self.dirty_victim_evictions)?;
        io.u64(&mut self.overrides)?;
        io.u64(&mut self.cleanses)?;
        io.u64(&mut self.checked_decisions)?;
        io.u64(&mut self.incorrect_decisions)?;
        io.u64(&mut self.writebacks)
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_round_trip() {
        for p in [
            WritePolicyKind::Baseline,
            WritePolicyKind::BardE,
            WritePolicyKind::BardC,
            WritePolicyKind::BardH,
            WritePolicyKind::EagerWriteback,
            WritePolicyKind::VirtualWriteQueue,
        ] {
            assert_eq!(WritePolicyKind::from_label(p.label()), Some(p));
            assert_eq!(format!("{p}"), p.label());
        }
        assert_eq!(WritePolicyKind::from_label("nope"), None);
    }

    #[test]
    fn bard_variants_are_flagged() {
        assert!(WritePolicyKind::BardH.is_bard());
        assert!(!WritePolicyKind::EagerWriteback.is_bard());
        assert!(!WritePolicyKind::Baseline.is_bard());
    }

    #[test]
    fn fractions_are_safe_and_sum_to_one() {
        let s = PolicyStats { evictions: 100, overrides: 5, cleanses: 30, ..Default::default() };
        assert!((s.override_fraction() - 0.05).abs() < 1e-12);
        assert!((s.cleanse_fraction() - 0.30).abs() < 1e-12);
        assert!((s.plain_fraction() - 0.65).abs() < 1e-12);
        assert_eq!(PolicyStats::default().override_fraction(), 0.0);
    }

    #[test]
    fn incorrect_fraction_uses_checked_decisions() {
        let s = PolicyStats { checked_decisions: 10, incorrect_decisions: 3, ..Default::default() };
        assert!((s.incorrect_decision_fraction() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = PolicyStats { evictions: 10, cleanses: 2, ..Default::default() };
        let b = PolicyStats { evictions: 5, overrides: 1, ..Default::default() };
        a.merge(&b);
        assert_eq!(a.evictions, 15);
        assert_eq!(a.overrides, 1);
        assert_eq!(a.cleanses, 2);
    }
}
