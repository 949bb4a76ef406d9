//! The BERI pipeline structure (Figure 2) and the branch predictor.
//!
//! "BERI is single-issue and in-order, with a throughput approaching one
//! instruction per cycle. BERI has a branch predictor and uses limited
//! register renaming for robust forwarding in its 6-stage pipeline."
//!
//! The stage list is used descriptively by the Figure 2 harness; the
//! [`BranchPredictor`] supplies the mispredict penalty charged by the
//! cycle model.

use core::fmt;

/// One of BERI's six pipeline stages, with the capability-coprocessor
/// attach point Figure 2 shows for it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Stage {
    /// Stage name.
    pub name: &'static str,
    /// What the stage does.
    pub role: &'static str,
    /// How the capability coprocessor couples to this stage (Figure 2
    /// arrows), if at all.
    pub coprocessor_link: Option<&'static str>,
}

/// The six stages of Figure 2, in order, with their CP2 couplings.
pub const STAGES: [Stage; 6] = [
    Stage {
        name: "Instruction Fetch",
        role: "fetch from I-cache at the absolute PC",
        coprocessor_link: Some("offset address: PC validated against PCC"),
    },
    Stage {
        name: "Scheduler",
        role: "hazard scheduling and register renaming",
        coprocessor_link: None,
    },
    Stage {
        name: "Decode",
        role: "decode; feed capability instructions to CP2",
        coprocessor_link: Some("put capability instruction"),
    },
    Stage {
        name: "Execute",
        role: "ALU; branch resolution; capability checks",
        coprocessor_link: Some("exchange operands; get address"),
    },
    Stage {
        name: "Memory Access",
        role: "D-cache access, transformed and limited by CP2",
        coprocessor_link: Some("offset address"),
    },
    Stage {
        name: "Writeback",
        role: "commit results to register files",
        coprocessor_link: Some("commit writeback"),
    },
];

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.name, self.role)?;
        if let Some(link) = self.coprocessor_link {
            write!(f, " [CP2: {link}]")?;
        }
        Ok(())
    }
}

/// Penalty in cycles for a mispredicted conditional branch (branch
/// resolves in Execute, stage 4, so 2 fetch slots are squashed in a
/// 6-stage single-issue pipeline with a 1-cycle redirect).
pub const MISPREDICT_PENALTY: u64 = 2;

/// Penalty for an indirect jump (`JR`/`JALR`/`CJR`/`CJALR`): no BTB is
/// modelled, so the target is available at Execute.
pub const INDIRECT_JUMP_PENALTY: u64 = 1;

/// Extra cycles for a multiply (`MULT`, `DMULT`, ...).
pub const MUL_PENALTY: u64 = 3;

/// Extra cycles for a divide (`DIV`, `DDIV`, ...).
pub const DIV_PENALTY: u64 = 16;

/// Two-bit counters in the machine's branch-history table.
pub const BHT_ENTRIES: usize = 512;

/// A gshare-free, per-PC 2-bit saturating-counter branch predictor.
///
/// # Example
///
/// ```
/// use beri_sim::pipeline::BranchPredictor;
///
/// let mut bp = BranchPredictor::new(512);
/// // Train a loop branch: after two taken outcomes it predicts taken.
/// bp.update(0x100, true);
/// bp.update(0x100, true);
/// assert!(bp.predict(0x100));
/// ```
#[derive(Clone, Debug)]
pub struct BranchPredictor {
    counters: Vec<u8>,
}

impl BranchPredictor {
    /// Creates a predictor with `entries` two-bit counters (rounded up to
    /// a power of two), initialised to weakly-not-taken.
    #[must_use]
    pub fn new(entries: usize) -> BranchPredictor {
        let n = entries.next_power_of_two().max(1);
        BranchPredictor { counters: vec![1; n] }
    }

    #[inline]
    fn index(&self, pc: u64) -> usize {
        ((pc >> 2) as usize) & (self.counters.len() - 1)
    }

    /// Predicted direction for the branch at `pc`.
    #[must_use]
    #[inline]
    pub fn predict(&self, pc: u64) -> bool {
        self.counters[self.index(pc)] >= 2
    }

    /// Trains the predictor with the actual outcome; returns `true` if
    /// the prediction was correct.
    #[inline]
    pub fn update(&mut self, pc: u64, taken: bool) -> bool {
        let correct = self.predict(pc) == taken;
        let i = self.index(pc);
        let c = &mut self.counters[i];
        if taken {
            *c = (*c + 1).min(3);
        } else {
            *c = c.saturating_sub(1);
        }
        correct
    }

    /// Exports the counter table (run-length encoded) for `cheri-snap`.
    #[must_use]
    pub fn export_state(&self) -> cheri_snap::PredictorState {
        cheri_snap::PredictorState {
            counters: cheri_snap::rle_encode(self.counters.iter().map(|&c| u64::from(c))),
        }
    }

    /// Restores state exported by [`BranchPredictor::export_state`].
    ///
    /// # Errors
    ///
    /// [`cheri_snap::SnapError`] if the table size differs or a counter
    /// exceeds the 2-bit range.
    pub fn import_state(
        &mut self,
        s: &cheri_snap::PredictorState,
    ) -> Result<(), cheri_snap::SnapError> {
        if cheri_snap::rle_len(&s.counters) != self.counters.len() as u64 {
            return Err(cheri_snap::SnapError(format!(
                "predictor holds {} counters, snapshot has {}",
                self.counters.len(),
                cheri_snap::rle_len(&s.counters)
            )));
        }
        let mut at = 0usize;
        for &(count, value) in &s.counters {
            if value > 3 {
                return Err(cheri_snap::SnapError(format!(
                    "predictor counter {value} out of 2-bit range"
                )));
            }
            for _ in 0..count {
                self.counters[at] = value as u8;
                at += 1;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn six_stages_match_figure_2() {
        assert_eq!(STAGES.len(), 6);
        assert_eq!(STAGES[0].name, "Instruction Fetch");
        assert_eq!(STAGES[5].name, "Writeback");
        // CP2 couples to fetch, decode, execute, memory, writeback.
        let links = STAGES.iter().filter(|s| s.coprocessor_link.is_some()).count();
        assert_eq!(links, 5);
    }

    #[test]
    fn predictor_learns_biased_branch() {
        let mut bp = BranchPredictor::new(16);
        let mut wrong = 0;
        for _ in 0..100 {
            if !bp.update(0x40, true) {
                wrong += 1;
            }
        }
        assert!(wrong <= 2, "should converge quickly, got {wrong} mispredicts");
    }

    #[test]
    fn predictor_tracks_alternating_poorly() {
        // 2-bit counters famously struggle with strict alternation;
        // just check it neither panics nor diverges.
        let mut bp = BranchPredictor::new(16);
        for i in 0..64 {
            bp.update(0x40, i % 2 == 0);
        }
        let _ = bp.predict(0x40);
    }

    #[test]
    fn distinct_pcs_use_distinct_counters() {
        let mut bp = BranchPredictor::new(16);
        bp.update(0x0, true);
        bp.update(0x0, true);
        assert!(bp.predict(0x0));
        assert!(!bp.predict(0x4), "untrained branch starts not-taken");
    }

    #[test]
    fn display_mentions_cp2() {
        assert!(STAGES[3].to_string().contains("CP2"));
    }
}
