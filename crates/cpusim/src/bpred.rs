//! Branch predictors (Table 1: Perfect, Bimodal, 2-level, Combination).
//!
//! All predictors share the [`BranchPredictor`] interface: predict from a
//! branch identifier, then update with the architectural outcome. Sizing
//! follows SimpleScalar defaults (2K-entry bimodal table, 12-bit global
//! history gshare, 4K-entry chooser for the tournament).

use crate::config::BranchPredictorKind;

/// Common predictor interface.
pub trait BranchPredictor {
    /// Predict taken/not-taken for the branch identified by `id`.
    fn predict(&mut self, id: u32) -> bool;
    /// Inform the predictor of the architectural outcome.
    fn update(&mut self, id: u32, taken: bool);
    /// Statistics: (predictions, mispredictions).
    fn stats(&self) -> (u64, u64);
    /// Record whether the last prediction for `id` was correct; the default
    /// drivers call [`BranchPredictor::resolve`] instead of raw
    /// predict/update so stats stay consistent.
    fn resolve(&mut self, id: u32, taken: bool) -> bool {
        let pred = self.predict(id);
        self.update(id, taken);
        self.record(pred == taken);
        pred == taken
    }
    /// Bump statistics counters.
    fn record(&mut self, correct: bool);
}

/// Saturating 2-bit counter helpers.
#[inline]
fn counter_taken(c: u8) -> bool {
    c >= 2
}

#[inline]
fn counter_update(c: &mut u8, taken: bool) {
    if taken {
        if *c < 3 {
            *c += 1;
        }
    } else if *c > 0 {
        *c -= 1;
    }
}

/// Oracle predictor: consumes the outcome at predict time via `resolve`,
/// never mispredicts.
#[derive(Debug, Default)]
pub struct Perfect {
    lookups: u64,
}

impl BranchPredictor for Perfect {
    fn predict(&mut self, _id: u32) -> bool {
        true // never consulted through `resolve`
    }
    fn update(&mut self, _id: u32, _taken: bool) {}
    fn stats(&self) -> (u64, u64) {
        (self.lookups, 0)
    }
    fn resolve(&mut self, _id: u32, _taken: bool) -> bool {
        self.lookups += 1;
        true
    }
    fn record(&mut self, _correct: bool) {}
}

/// Bimodal: table of 2-bit counters indexed by branch id.
#[derive(Debug)]
pub struct Bimodal {
    table: Vec<u8>,
    mask: u32,
    lookups: u64,
    mispredicts: u64,
}

impl Bimodal {
    /// `entries` must be a power of two (SimpleScalar default 2048).
    pub fn new(entries: usize) -> Self {
        assert!(
            entries.is_power_of_two(),
            "bimodal entries must be a power of two"
        );
        Bimodal {
            table: vec![1; entries], // weakly not-taken
            mask: entries as u32 - 1,
            lookups: 0,
            mispredicts: 0,
        }
    }
}

impl BranchPredictor for Bimodal {
    fn predict(&mut self, id: u32) -> bool {
        counter_taken(self.table[(id & self.mask) as usize])
    }
    fn update(&mut self, id: u32, taken: bool) {
        counter_update(&mut self.table[(id & self.mask) as usize], taken);
    }
    fn stats(&self) -> (u64, u64) {
        (self.lookups, self.mispredicts)
    }
    fn record(&mut self, correct: bool) {
        self.lookups += 1;
        if !correct {
            self.mispredicts += 1;
        }
    }
}

/// Two-level adaptive (gshare): global history XORed with the branch id
/// indexes a pattern-history table of 2-bit counters.
#[derive(Debug)]
pub struct TwoLevel {
    pht: Vec<u8>,
    history: u32,
    history_bits: u32,
    lookups: u64,
    mispredicts: u64,
}

impl TwoLevel {
    /// `history_bits` global history bits; PHT has `2^history_bits`
    /// counters (SimpleScalar default: 12 bits → 4096 entries).
    pub fn new(history_bits: u32) -> Self {
        TwoLevel {
            pht: vec![1; 1 << history_bits],
            history: 0,
            history_bits,
            lookups: 0,
            mispredicts: 0,
        }
    }

    #[inline]
    fn index(&self, id: u32) -> usize {
        let mask = (1u32 << self.history_bits) - 1;
        ((self.history ^ id) & mask) as usize
    }
}

impl BranchPredictor for TwoLevel {
    fn predict(&mut self, id: u32) -> bool {
        counter_taken(self.pht[self.index(id)])
    }
    fn update(&mut self, id: u32, taken: bool) {
        let idx = self.index(id);
        counter_update(&mut self.pht[idx], taken);
        self.history = (self.history << 1) | u32::from(taken);
    }
    fn stats(&self) -> (u64, u64) {
        (self.lookups, self.mispredicts)
    }
    fn record(&mut self, correct: bool) {
        self.lookups += 1;
        if !correct {
            self.mispredicts += 1;
        }
    }
}

/// Tournament (SimpleScalar "comb"): bimodal + gshare with a per-branch
/// chooser of 2-bit counters that learns which component to trust.
#[derive(Debug)]
pub struct Combination {
    bimodal: Bimodal,
    gshare: TwoLevel,
    chooser: Vec<u8>,
    mask: u32,
    lookups: u64,
    mispredicts: u64,
}

impl Combination {
    /// Build with SimpleScalar-like sizing.
    pub fn new(chooser_entries: usize, bimodal_entries: usize, history_bits: u32) -> Self {
        assert!(
            chooser_entries.is_power_of_two(),
            "chooser entries must be a power of two"
        );
        Combination {
            bimodal: Bimodal::new(bimodal_entries),
            gshare: TwoLevel::new(history_bits),
            chooser: vec![2; chooser_entries], // slight initial gshare bias
            mask: chooser_entries as u32 - 1,
            lookups: 0,
            mispredicts: 0,
        }
    }
}

impl BranchPredictor for Combination {
    fn predict(&mut self, id: u32) -> bool {
        let pb = self.bimodal.predict(id);
        let pg = self.gshare.predict(id);
        let use_gshare = counter_taken(self.chooser[(id & self.mask) as usize]);
        if use_gshare {
            pg
        } else {
            pb
        }
    }
    fn update(&mut self, id: u32, taken: bool) {
        let pb = self.bimodal.predict(id);
        let pg = self.gshare.predict(id);
        // Train the chooser toward the component that was right when they
        // disagree.
        if pb != pg {
            counter_update(&mut self.chooser[(id & self.mask) as usize], pg == taken);
        }
        self.bimodal.update(id, taken);
        self.gshare.update(id, taken);
    }
    fn stats(&self) -> (u64, u64) {
        (self.lookups, self.mispredicts)
    }
    fn record(&mut self, correct: bool) {
        self.lookups += 1;
        if !correct {
            self.mispredicts += 1;
        }
    }
}

/// Instantiate the predictor selected by a configuration, with the
/// project-standard sizing.
pub fn build(kind: BranchPredictorKind) -> Box<dyn BranchPredictor + Send> {
    match kind {
        BranchPredictorKind::Perfect => Box::new(Perfect::default()),
        BranchPredictorKind::Bimodal => Box::new(Bimodal::new(2048)),
        BranchPredictorKind::TwoLevel => Box::new(TwoLevel::new(12)),
        BranchPredictorKind::Combination => Box::new(Combination::new(4096, 2048, 12)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Feed a synthetic branch stream and return accuracy.
    fn accuracy(p: &mut dyn BranchPredictor, stream: &[(u32, bool)]) -> f64 {
        let mut correct = 0usize;
        for &(id, taken) in stream {
            if p.resolve(id, taken) {
                correct += 1;
            }
        }
        correct as f64 / stream.len() as f64
    }

    fn biased_stream(n: usize) -> Vec<(u32, bool)> {
        (0..n).map(|i| ((i % 16) as u32, true)).collect()
    }

    /// A single alternating branch: T,N,T,N…
    fn alternating_stream(n: usize) -> Vec<(u32, bool)> {
        (0..n).map(|i| (7u32, i % 2 == 0)).collect()
    }

    #[test]
    fn perfect_never_mispredicts() {
        let mut p = Perfect::default();
        let s: Vec<(u32, bool)> = (0..1000).map(|i| (i as u32 % 64, i % 3 == 0)).collect();
        assert_eq!(accuracy(&mut p, &s), 1.0);
        assert_eq!(p.stats(), (1000, 0));
    }

    #[test]
    fn bimodal_learns_bias() {
        let mut p = Bimodal::new(2048);
        let acc = accuracy(&mut p, &biased_stream(4000));
        assert!(acc > 0.98, "bimodal accuracy on biased stream: {acc}");
    }

    #[test]
    fn bimodal_fails_on_alternation() {
        let mut p = Bimodal::new(2048);
        let acc = accuracy(&mut p, &alternating_stream(4000));
        assert!(
            acc < 0.65,
            "bimodal should struggle on T/N alternation: {acc}"
        );
    }

    #[test]
    fn gshare_learns_alternation() {
        let mut p = TwoLevel::new(12);
        let acc = accuracy(&mut p, &alternating_stream(4000));
        assert!(acc > 0.95, "gshare accuracy on alternation: {acc}");
    }

    #[test]
    fn combination_tracks_best_component() {
        // Mixture: one alternating branch (gshare wins) + 15 biased branches
        // (both fine). The tournament should approach gshare-level accuracy.
        let mut stream = Vec::new();
        for i in 0..8000usize {
            if i % 4 == 0 {
                stream.push((99u32, (i / 4) % 2 == 0));
            } else {
                stream.push(((i % 15) as u32, true));
            }
        }
        let mut combo = Combination::new(4096, 2048, 12);
        let acc_combo = accuracy(&mut combo, &stream);
        let mut bim = Bimodal::new(2048);
        let acc_bim = accuracy(&mut bim, &stream);
        assert!(
            acc_combo > acc_bim,
            "tournament ({acc_combo}) should beat bimodal ({acc_bim})"
        );
        assert!(acc_combo > 0.9);
    }

    #[test]
    fn build_matches_kind() {
        for kind in BranchPredictorKind::ALL {
            let mut p = build(kind);
            // Must at least function.
            let _ = p.resolve(1, true);
            let (lookups, _) = p.stats();
            assert_eq!(lookups, 1);
        }
    }

    #[test]
    fn stats_count_mispredicts() {
        let mut p = Bimodal::new(16);
        // Counter starts weakly-not-taken; first taken prediction is wrong.
        p.resolve(0, true);
        let (l, m) = p.stats();
        assert_eq!(l, 1);
        assert_eq!(m, 1);
    }
}
