//! The microarchitecture configuration space of Table 1.
//!
//! Twenty-four parameters describe one simulated processor. The paper's
//! study enumerates 4608 configurations per benchmark; Table 1's free knobs
//! would over-count that, so — as documented in DESIGN.md §5 — this module
//! fixes the canonical tying: L1 line sizes move together, L2 size and
//! associativity move together, the L3's line/associativity follow its
//! presence, RUU and LSQ scale together, the two TLBs scale together, and
//! the functional-unit mix follows the pipeline width. The simulator itself
//! ([`CpuConfig`]) treats all 24 knobs independently; the tying lives only
//! in [`DesignSpace::table1`].

use serde::{Deserialize, Serialize};

/// Branch predictor selection (Table 1: Perfect, Bimodal, 2-level,
/// Combination).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BranchPredictorKind {
    /// Oracle predictor: never mispredicts. Upper bound used by the paper.
    Perfect,
    /// Per-branch 2-bit saturating counters.
    Bimodal,
    /// Two-level adaptive (gshare): global history XOR PC indexes counters.
    TwoLevel,
    /// Tournament of bimodal and two-level with a chooser table.
    Combination,
}

impl BranchPredictorKind {
    /// All four predictor kinds, in Table 1 order.
    pub const ALL: [BranchPredictorKind; 4] = [
        BranchPredictorKind::Perfect,
        BranchPredictorKind::Bimodal,
        BranchPredictorKind::TwoLevel,
        BranchPredictorKind::Combination,
    ];

    /// Stable numeric code used when a model needs a numeric encoding.
    pub fn code(self) -> usize {
        match self {
            BranchPredictorKind::Perfect => 0,
            BranchPredictorKind::Bimodal => 1,
            BranchPredictorKind::TwoLevel => 2,
            BranchPredictorKind::Combination => 3,
        }
    }

    /// Human-readable name matching the paper's Table 1.
    pub fn name(self) -> &'static str {
        match self {
            BranchPredictorKind::Perfect => "Perfect",
            BranchPredictorKind::Bimodal => "Bimodal",
            BranchPredictorKind::TwoLevel => "2-level",
            BranchPredictorKind::Combination => "Combination",
        }
    }
}

/// Geometry of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct CacheGeometry {
    /// Total capacity in kilobytes.
    pub size_kb: u32,
    /// Line (block) size in bytes.
    pub line_b: u32,
    /// Set associativity (ways).
    pub assoc: u32,
}

impl CacheGeometry {
    /// Number of sets implied by the geometry.
    pub(crate) fn num_sets(&self) -> usize {
        let lines = (self.size_kb as usize * 1024) / self.line_b as usize;
        (lines / self.assoc as usize).max(1)
    }
}

/// Functional unit counts (Table 1: ialu, imult, memport, fpalu, fpmult).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct FuConfig {
    /// Integer ALUs.
    pub ialu: u8,
    /// Integer multiply/divide units.
    pub imult: u8,
    /// Cache ports (load/store issue slots per cycle).
    pub memport: u8,
    /// Floating-point adders.
    pub fpalu: u8,
    /// Floating-point multiply/divide units.
    pub fpmult: u8,
}

impl FuConfig {
    /// The 4-wide FU mix from Table 1: 4/2/2/4/2.
    pub(crate) const NARROW: FuConfig = FuConfig {
        ialu: 4,
        imult: 2,
        memport: 2,
        fpalu: 4,
        fpmult: 2,
    };
    /// The 8-wide FU mix from Table 1: 8/4/4/8/4.
    pub const WIDE: FuConfig = FuConfig {
        ialu: 8,
        imult: 4,
        memport: 4,
        fpalu: 8,
        fpmult: 4,
    };
}

/// One point in the microprocessor design space — all 24 Table-1 parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct CpuConfig {
    /// L1 data cache geometry (16/32/64 KB, 32/64 B lines, 4-way).
    pub l1d: CacheGeometry,
    /// L1 instruction cache geometry (16/32/64 KB, 32/64 B lines, 4-way).
    pub l1i: CacheGeometry,
    /// Unified L2 geometry (256/1024 KB, 128 B lines, 4/8-way).
    pub l2: CacheGeometry,
    /// Optional L3 (None, or 8 MB / 256 B / 8-way).
    pub l3: Option<CacheGeometry>,
    /// Branch predictor kind.
    pub bpred: BranchPredictorKind,
    /// Decode/issue/commit width (4 or 8).
    pub width: u8,
    /// Whether wrong-path instructions are fetched and issued after a
    /// mispredicted branch (SimpleScalar's `-issue:wrongpath`).
    pub issue_wrong_path: bool,
    /// Register Update Unit entries (128 or 256).
    pub ruu_size: u32,
    /// Load/store queue entries (64 or 128).
    pub lsq_size: u32,
    /// Instruction TLB reach in KB (256 or 1024).
    pub itlb_kb: u32,
    /// Data TLB reach in KB (512 or 2048).
    pub dtlb_kb: u32,
    /// Functional unit mix.
    pub fu: FuConfig,
}

impl CpuConfig {
    /// A sane mid-range baseline (32 KB L1s, 256 KB L2, no L3, combining
    /// predictor, 4-wide). Used by examples and as a test fixture.
    pub fn baseline() -> Self {
        CpuConfig {
            l1d: CacheGeometry {
                size_kb: 32,
                line_b: 64,
                assoc: 4,
            },
            l1i: CacheGeometry {
                size_kb: 32,
                line_b: 64,
                assoc: 4,
            },
            l2: CacheGeometry {
                size_kb: 256,
                line_b: 128,
                assoc: 4,
            },
            l3: None,
            bpred: BranchPredictorKind::Combination,
            width: 4,
            issue_wrong_path: false,
            ruu_size: 128,
            lsq_size: 64,
            itlb_kb: 256,
            dtlb_kb: 512,
            fu: FuConfig::NARROW,
        }
    }

    /// Encode the configuration as the model-facing feature vector.
    ///
    /// Layout (`feature_names` gives the labels): all numeric Table-1
    /// parameters plus the branch predictor as a single numeric code. The
    /// ML layer re-encodes the predictor one-hot for neural networks; linear
    /// regression consumes the numeric columns directly, mirroring
    /// Clementine's "numeric inputs only" behaviour (§3.4).
    pub fn features(&self) -> Vec<f64> {
        vec![
            self.l1d.size_kb as f64,
            self.l1d.line_b as f64,
            self.l1d.assoc as f64,
            self.l1i.size_kb as f64,
            self.l1i.line_b as f64,
            self.l1i.assoc as f64,
            self.l2.size_kb as f64,
            self.l2.line_b as f64,
            self.l2.assoc as f64,
            self.l3.map_or(0.0, |c| c.size_kb as f64),
            self.l3.map_or(0.0, |c| c.line_b as f64),
            self.l3.map_or(0.0, |c| c.assoc as f64),
            self.bpred.code() as f64,
            self.width as f64,
            if self.issue_wrong_path { 1.0 } else { 0.0 },
            self.ruu_size as f64,
            self.lsq_size as f64,
            self.itlb_kb as f64,
            self.dtlb_kb as f64,
            self.fu.ialu as f64,
            self.fu.imult as f64,
            self.fu.memport as f64,
            self.fu.fpalu as f64,
            self.fu.fpmult as f64,
        ]
    }

    /// Names for the columns of [`CpuConfig::features`], in order.
    pub fn feature_names() -> Vec<&'static str> {
        vec![
            "l1d_size_kb",
            "l1d_line_b",
            "l1d_assoc",
            "l1i_size_kb",
            "l1i_line_b",
            "l1i_assoc",
            "l2_size_kb",
            "l2_line_b",
            "l2_assoc",
            "l3_size_kb",
            "l3_line_b",
            "l3_assoc",
            "bpred",
            "width",
            "issue_wrong_path",
            "ruu_size",
            "lsq_size",
            "itlb_kb",
            "dtlb_kb",
            "fu_ialu",
            "fu_imult",
            "fu_memport",
            "fu_fpalu",
            "fu_fpmult",
        ]
    }

    /// Index of the branch-predictor column within [`CpuConfig::features`].
    pub const BPRED_FEATURE_INDEX: usize = 12;
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Incremental FNV-1a hasher used for space identity (content hashes).
#[derive(Debug, Clone, Copy)]
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(FNV_OFFSET)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    fn write_str(&mut self, s: &str) {
        self.write(s.as_bytes());
        // Field separator so "ab"+"c" and "a"+"bc" hash differently.
        self.write(&[0xff]);
    }

    fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    fn finish(self) -> u64 {
        self.0
    }
}

/// Per-axis value lists defining a generator-backed design space.
///
/// The spec generalizes the Table-1 lattice while preserving its canonical
/// tying (DESIGN.md §5): both L1 caches share one line-size axis and are
/// 4-way, the L2 line is fixed at 128 B, RUU/LSQ move together as a
/// `window` pair, the two TLBs move together as a `tlb` pair, and the
/// functional-unit mix is derived from the width by
/// [`SpaceSpec::fu_for_width`]. Axis order below is the enumeration order
/// (outermost first), chosen so [`SpaceSpec::table1`] reproduces the
/// historical `DesignSpace::table1()` sequence exactly.
#[derive(Debug, Clone, PartialEq)]
pub struct SpaceSpec {
    /// L1 data-cache sizes in KB (outermost axis).
    pub l1d_size_kb: Vec<u32>,
    /// L1 instruction-cache sizes in KB.
    pub l1i_size_kb: Vec<u32>,
    /// Branch predictor kinds.
    pub bpred: Vec<BranchPredictorKind>,
    /// Shared L1 line sizes in bytes.
    pub l1_line_b: Vec<u32>,
    /// Unified L2 geometries.
    pub l2: Vec<CacheGeometry>,
    /// Optional L3 geometries (`None` = no L3).
    pub l3: Vec<Option<CacheGeometry>>,
    /// Decode/issue/commit widths (FU mix derived per width).
    pub width: Vec<u8>,
    /// Wrong-path issue on/off.
    pub wrong_path: Vec<bool>,
    /// `(ruu_size, lsq_size)` window pairs.
    pub window: Vec<(u32, u32)>,
    /// `(itlb_kb, dtlb_kb)` TLB reach pairs (innermost axis).
    pub tlb: Vec<(u32, u32)>,
}

impl SpaceSpec {
    /// The canonical Table-1 spec: exactly 4608 configurations, in the
    /// same order as the historical nested-loop enumeration.
    pub fn table1() -> Self {
        SpaceSpec {
            l1d_size_kb: vec![16, 32, 64],
            l1i_size_kb: vec![16, 32, 64],
            bpred: BranchPredictorKind::ALL.to_vec(),
            l1_line_b: vec![32, 64],
            l2: vec![
                CacheGeometry {
                    size_kb: 256,
                    line_b: 128,
                    assoc: 4,
                },
                CacheGeometry {
                    size_kb: 1024,
                    line_b: 128,
                    assoc: 8,
                },
            ],
            l3: vec![
                None,
                Some(CacheGeometry {
                    size_kb: 8192,
                    line_b: 256,
                    assoc: 8,
                }),
            ],
            width: vec![4, 8],
            wrong_path: vec![false, true],
            window: vec![(128, 64), (256, 128)],
            tlb: vec![(256, 512), (1024, 2048)],
        }
    }

    /// A tiny generated space (48 points) for shard smoke tests and CI:
    /// Table-1 values with the L1I, line, L2, L3, window, and TLB axes
    /// pinned to one level each.
    pub fn smoke() -> Self {
        SpaceSpec {
            l1d_size_kb: vec![16, 32, 64],
            l1i_size_kb: vec![32],
            bpred: BranchPredictorKind::ALL.to_vec(),
            l1_line_b: vec![64],
            l2: vec![CacheGeometry {
                size_kb: 256,
                line_b: 128,
                assoc: 4,
            }],
            l3: vec![None],
            width: vec![4, 8],
            wrong_path: vec![false, true],
            window: vec![(128, 64)],
            tlb: vec![(256, 512)],
        }
    }

    /// A million-point lattice (2,211,840 configurations) extending every
    /// Table-1 axis: 6·6·4·4·6·5·4·2·4·4. Enumerates lazily through
    /// [`DesignSpace::config_at`]; never materialize it.
    pub fn mega() -> Self {
        let l2 = [
            (128u32, 2u32),
            (256, 4),
            (512, 4),
            (1024, 8),
            (2048, 8),
            (4096, 16),
        ]
        .iter()
        .map(|&(size_kb, assoc)| CacheGeometry {
            size_kb,
            line_b: 128,
            assoc,
        })
        .collect();
        let l3 = [(2048u32, 8u32), (4096, 8), (8192, 8), (16384, 16)]
            .iter()
            .map(|&(size_kb, assoc)| {
                Some(CacheGeometry {
                    size_kb,
                    line_b: 256,
                    assoc,
                })
            })
            .collect::<Vec<_>>();
        SpaceSpec {
            l1d_size_kb: vec![8, 16, 32, 64, 128, 256],
            l1i_size_kb: vec![8, 16, 32, 64, 128, 256],
            bpred: BranchPredictorKind::ALL.to_vec(),
            l1_line_b: vec![16, 32, 64, 128],
            l2,
            l3: std::iter::once(None).chain(l3).collect(),
            width: vec![2, 4, 8, 16],
            wrong_path: vec![false, true],
            window: vec![(64, 32), (128, 64), (256, 128), (512, 256)],
            tlb: vec![(128, 256), (256, 512), (1024, 2048), (4096, 8192)],
        }
    }

    /// The FU mix tied to a pipeline width: `width` integer/FP ALUs and
    /// `width/2` (at least 1) of everything else. Reproduces Table 1's
    /// NARROW (4-wide) and WIDE (8-wide) mixes exactly.
    pub(crate) fn fu_for_width(width: u8) -> FuConfig {
        let half = (width / 2).max(1);
        FuConfig {
            ialu: width,
            imult: half,
            memport: half,
            fpalu: width,
            fpmult: half,
        }
    }

    /// Axis cardinalities, outermost first.
    fn radices(&self) -> [usize; 10] {
        [
            self.l1d_size_kb.len(),
            self.l1i_size_kb.len(),
            self.bpred.len(),
            self.l1_line_b.len(),
            self.l2.len(),
            self.l3.len(),
            self.width.len(),
            self.wrong_path.len(),
            self.window.len(),
            self.tlb.len(),
        ]
    }

    /// Number of lattice points, or a typed error if any axis is empty or
    /// the product overflows `usize`.
    pub(crate) fn try_len(&self) -> fault::Result<usize> {
        let mut n: usize = 1;
        for (axis, r) in Self::AXIS_NAMES.iter().zip(self.radices()) {
            if r == 0 {
                return Err(fault::Error::invalid(format!(
                    "space spec axis '{axis}' is empty"
                )));
            }
            n = n
                .checked_mul(r)
                .ok_or_else(|| fault::Error::invalid("space spec size overflows usize"))?;
        }
        Ok(n)
    }

    const AXIS_NAMES: [&'static str; 10] = [
        "l1d_size_kb",
        "l1i_size_kb",
        "bpred",
        "l1_line_b",
        "l2",
        "l3",
        "width",
        "wrong_path",
        "window",
        "tlb",
    ];

    /// Check the spec is well-formed: non-empty axes, no duplicate values
    /// within an axis (duplicates would make [`SpaceSpec::index_of`]
    /// ambiguous and enumerate identical points twice), strictly positive
    /// geometry, and a size that fits `usize`.
    pub(crate) fn validate(&self) -> fault::Result<()> {
        self.try_len()?;
        fn distinct<T: PartialEq + std::fmt::Debug>(axis: &str, values: &[T]) -> fault::Result<()> {
            for (i, v) in values.iter().enumerate() {
                if values[..i].contains(v) {
                    return Err(fault::Error::invalid(format!(
                        "space spec axis '{axis}' repeats value {v:?}"
                    )));
                }
            }
            Ok(())
        }
        distinct("l1d_size_kb", &self.l1d_size_kb)?;
        distinct("l1i_size_kb", &self.l1i_size_kb)?;
        distinct("bpred", &self.bpred)?;
        distinct("l1_line_b", &self.l1_line_b)?;
        distinct("l2", &self.l2)?;
        distinct("l3", &self.l3)?;
        distinct("width", &self.width)?;
        distinct("wrong_path", &self.wrong_path)?;
        distinct("window", &self.window)?;
        distinct("tlb", &self.tlb)?;
        let positive = |axis: &str, ok: bool| {
            if ok {
                Ok(())
            } else {
                Err(fault::Error::invalid(format!(
                    "space spec axis '{axis}' contains a zero value"
                )))
            }
        };
        positive("l1d_size_kb", self.l1d_size_kb.iter().all(|&v| v > 0))?;
        positive("l1i_size_kb", self.l1i_size_kb.iter().all(|&v| v > 0))?;
        positive("l1_line_b", self.l1_line_b.iter().all(|&v| v > 0))?;
        let geom_ok = |g: &CacheGeometry| g.size_kb > 0 && g.line_b > 0 && g.assoc > 0;
        positive("l2", self.l2.iter().all(geom_ok))?;
        positive("l3", self.l3.iter().flatten().all(geom_ok))?;
        positive("width", self.width.iter().all(|&v| v > 0))?;
        positive("window", self.window.iter().all(|&(r, l)| r > 0 && l > 0))?;
        positive("tlb", self.tlb.iter().all(|&(i, d)| i > 0 && d > 0))?;
        Ok(())
    }

    /// FNV-1a hash of a canonical encoding of every axis value. Two specs
    /// hash equal iff they define the same lattice in the same order, so
    /// checkpoint headers can verify which space a ledger belongs to.
    pub fn content_hash(&self) -> u64 {
        let mut h = Fnv::new();
        h.write_str("spacespec.v1");
        for &v in &self.l1d_size_kb {
            h.write_u64(u64::from(v));
        }
        h.write_str("l1i");
        for &v in &self.l1i_size_kb {
            h.write_u64(u64::from(v));
        }
        h.write_str("bpred");
        for &b in &self.bpred {
            h.write_u64(b.code() as u64);
        }
        h.write_str("line");
        for &v in &self.l1_line_b {
            h.write_u64(u64::from(v));
        }
        h.write_str("l2");
        for g in &self.l2 {
            h.write_u64(u64::from(g.size_kb));
            h.write_u64(u64::from(g.line_b));
            h.write_u64(u64::from(g.assoc));
        }
        h.write_str("l3");
        for g in &self.l3 {
            match g {
                None => h.write_u64(0),
                Some(g) => {
                    h.write_u64(1);
                    h.write_u64(u64::from(g.size_kb));
                    h.write_u64(u64::from(g.line_b));
                    h.write_u64(u64::from(g.assoc));
                }
            }
        }
        h.write_str("width");
        for &v in &self.width {
            h.write_u64(u64::from(v));
        }
        h.write_str("wrong");
        for &v in &self.wrong_path {
            h.write_u64(u64::from(v));
        }
        h.write_str("window");
        for &(r, l) in &self.window {
            h.write_u64(u64::from(r));
            h.write_u64(u64::from(l));
        }
        h.write_str("tlb");
        for &(i, d) in &self.tlb {
            h.write_u64(u64::from(i));
            h.write_u64(u64::from(d));
        }
        h.finish()
    }

    /// Decode lattice index `idx` (mixed-radix, innermost axis fastest)
    /// into its configuration. `idx` must be below [`SpaceSpec::try_len`].
    pub fn config_at(&self, idx: usize) -> CpuConfig {
        let radices = self.radices();
        let mut rest = idx;
        let mut digits = [0usize; 10];
        for (d, &r) in digits.iter_mut().zip(radices.iter()).rev() {
            *d = rest % r;
            rest /= r;
        }
        assert!(
            rest == 0,
            "design-space index {idx} out of range for a {}-point spec",
            radices.iter().product::<usize>()
        );
        let line = self.l1_line_b[digits[3]];
        let width = self.width[digits[6]];
        let (ruu, lsq) = self.window[digits[8]];
        let (itlb, dtlb) = self.tlb[digits[9]];
        CpuConfig {
            l1d: CacheGeometry {
                size_kb: self.l1d_size_kb[digits[0]],
                line_b: line,
                assoc: 4,
            },
            l1i: CacheGeometry {
                size_kb: self.l1i_size_kb[digits[1]],
                line_b: line,
                assoc: 4,
            },
            l2: self.l2[digits[4]],
            l3: self.l3[digits[5]],
            bpred: self.bpred[digits[2]],
            width,
            issue_wrong_path: self.wrong_path[digits[7]],
            ruu_size: ruu,
            lsq_size: lsq,
            itlb_kb: itlb,
            dtlb_kb: dtlb,
            fu: Self::fu_for_width(width),
        }
    }

    /// Inverse of [`SpaceSpec::config_at`]: the lattice index of `config`,
    /// or `None` if the config is not a point of this spec (including any
    /// violation of the canonical tying, e.g. a free-standing FU mix).
    pub fn index_of(&self, config: &CpuConfig) -> Option<usize> {
        if config.l1d.assoc != 4
            || config.l1i.assoc != 4
            || config.l1d.line_b != config.l1i.line_b
            || config.fu != Self::fu_for_width(config.width)
        {
            return None;
        }
        let digits = [
            self.l1d_size_kb
                .iter()
                .position(|&v| v == config.l1d.size_kb)?,
            self.l1i_size_kb
                .iter()
                .position(|&v| v == config.l1i.size_kb)?,
            self.bpred.iter().position(|&v| v == config.bpred)?,
            self.l1_line_b
                .iter()
                .position(|&v| v == config.l1d.line_b)?,
            self.l2.iter().position(|&v| v == config.l2)?,
            self.l3.iter().position(|&v| v == config.l3)?,
            self.width.iter().position(|&v| v == config.width)?,
            self.wrong_path
                .iter()
                .position(|&v| v == config.issue_wrong_path)?,
            self.window
                .iter()
                .position(|&v| v == (config.ruu_size, config.lsq_size))?,
            self.tlb
                .iter()
                .position(|&v| v == (config.itlb_kb, config.dtlb_kb))?,
        ];
        let mut idx = 0usize;
        for (d, r) in digits.iter().zip(self.radices()) {
            idx = idx * r + d;
        }
        Some(idx)
    }
}

/// How a [`DesignSpace`] stores its points: an explicit list, or a
/// [`SpaceSpec`] that decodes configs on demand (with a lazily-filled
/// materialization cache for legacy `configs()` callers).
#[derive(Debug, Clone)]
enum Backing {
    Explicit(Vec<CpuConfig>),
    Generated {
        // Boxed: SpaceSpec is ~280 bytes of Vecs, far larger than the
        // Explicit variant (clippy::large_enum_variant).
        spec: Box<SpaceSpec>,
        len: usize,
        hash: u64,
        cache: std::sync::OnceLock<Vec<CpuConfig>>,
    },
}

/// An enumerable design space over [`CpuConfig`]s with a stable per-config
/// index and a content hash identifying the space.
#[derive(Debug, Clone)]
pub struct DesignSpace {
    backing: Backing,
}

impl DesignSpace {
    /// Build a lazily-enumerated space from a spec. Fails with
    /// [`fault::Error::InvalidInput`] if the spec is malformed (empty or
    /// duplicated axes, zero-sized geometry, size overflow).
    pub fn try_generate(spec: &SpaceSpec) -> fault::Result<Self> {
        spec.validate()?;
        let len = spec.try_len()?;
        Ok(DesignSpace {
            backing: Backing::Generated {
                hash: spec.content_hash(),
                len,
                spec: Box::new(spec.clone()),
                cache: std::sync::OnceLock::new(),
            },
        })
    }

    /// The canonical Table-1 lattice: exactly 4608 configurations.
    ///
    /// Free axes: L1D size ×3, L1I size ×3, branch predictor ×4, shared L1
    /// line size ×2, L2 {256 KB/4-way, 1024 KB/8-way} ×2, L3 present ×2,
    /// width (with tied FU mix) ×2, wrong-path issue ×2, window
    /// {RUU 128 + LSQ 64, RUU 256 + LSQ 128} ×2, TLB pair ×2. Since the
    /// generator refactor this is simply [`SpaceSpec::table1`].
    pub fn table1() -> Self {
        Self::try_generate(&SpaceSpec::table1())
            .expect("the canonical Table-1 spec is statically valid")
    }

    /// A reduced lattice for tests and quick demos: drops the TLB, window,
    /// and wrong-path axes (576 configurations).
    pub fn table1_reduced() -> Self {
        let configs = Self::table1()
            .iter()
            .filter(|c| !c.issue_wrong_path && c.ruu_size == 128 && c.itlb_kb == 256)
            .collect();
        DesignSpace {
            backing: Backing::Explicit(configs),
        }
    }

    /// Every `step`-th configuration of [`Self::table1`], starting with
    /// the first, as an explicit list (`step` 16 gives 288 points, 4 gives
    /// 1152). The list backing keeps [`Self::content_hash`] that of the
    /// decimated configs, so sweep ledgers written for such a space still
    /// resume. Panics if `step` is 0, as [`Iterator::step_by`] does.
    pub fn table1_every(step: usize) -> Self {
        Self::from_configs(Self::table1().iter().step_by(step).collect())
    }

    /// Build from an explicit configuration list.
    pub fn from_configs(configs: Vec<CpuConfig>) -> Self {
        DesignSpace {
            backing: Backing::Explicit(configs),
        }
    }

    /// Borrow the configurations as a slice.
    ///
    /// For generated spaces this materializes (and caches) every point on
    /// first call — fine at Table-1 scale, ruinous at [`SpaceSpec::mega`]
    /// scale. Index-driven consumers (the sweep drivers, adaptive DSE)
    /// use [`DesignSpace::config_at`]/[`DesignSpace::iter`] instead.
    pub fn configs(&self) -> &[CpuConfig] {
        match &self.backing {
            Backing::Explicit(configs) => configs,
            Backing::Generated {
                spec, len, cache, ..
            } => cache.get_or_init(|| (0..*len).map(|i| spec.config_at(i)).collect()),
        }
    }

    /// The configuration at lattice/list index `idx` (panics if out of
    /// range, like slice indexing). O(1) and allocation-free for
    /// generated spaces.
    pub fn config_at(&self, idx: usize) -> CpuConfig {
        match &self.backing {
            Backing::Explicit(configs) => configs[idx],
            Backing::Generated { spec, len, .. } => {
                assert!(
                    idx < *len,
                    "design-space index {idx} out of range for a {len}-point space"
                );
                spec.config_at(idx)
            }
        }
    }

    /// Iterate the configurations in index order without materializing
    /// generated spaces.
    pub fn iter(&self) -> impl Iterator<Item = CpuConfig> + '_ {
        (0..self.len()).map(move |i| self.config_at(i))
    }

    /// The index of `config` in this space, or `None` if absent.
    pub fn index_of(&self, config: &CpuConfig) -> Option<usize> {
        match &self.backing {
            Backing::Explicit(configs) => configs.iter().position(|c| c == config),
            Backing::Generated { spec, len, .. } => spec.index_of(config).filter(|&i| i < *len),
        }
    }

    /// The generating spec, if this space is generator-backed.
    pub fn spec(&self) -> Option<&SpaceSpec> {
        match &self.backing {
            Backing::Explicit(_) => None,
            Backing::Generated { spec, .. } => Some(spec.as_ref()),
        }
    }

    /// Content hash identifying the space: the spec hash for generated
    /// spaces, an FNV-1a over the feature encodings for explicit lists.
    /// Consumers (sweep checkpoints) use it to refuse resuming a ledger
    /// against a different space of equal size.
    pub fn content_hash(&self) -> u64 {
        match &self.backing {
            Backing::Generated { hash, .. } => *hash,
            Backing::Explicit(configs) => {
                let mut h = Fnv::new();
                h.write_str("explicit.v1");
                h.write_u64(configs.len() as u64);
                for c in configs {
                    for f in c.features() {
                        h.write_u64(f.to_bits());
                    }
                }
                h.finish()
            }
        }
    }

    /// Whether `configs()` has materialized a generated space (explicit
    /// spaces are trivially materialized). Lazy-enumeration tests assert
    /// this stays `false` across index-driven pipelines.
    pub fn is_materialized(&self) -> bool {
        match &self.backing {
            Backing::Explicit(_) => true,
            Backing::Generated { cache, .. } => cache.get().is_some(),
        }
    }

    /// `k` distinct indices drawn without replacement from a seeded RNG.
    /// Deterministic per (seed, k, space size). For `k` much smaller than
    /// the space, rejection sampling avoids the O(n) shuffle scratch that
    /// would defeat lazy enumeration; near-exhaustive draws fall back to
    /// the partial Fisher–Yates in `linalg::dist`.
    pub fn seeded_pool(&self, seed: u64, k: usize) -> Vec<usize> {
        let n = self.len();
        if k >= n {
            return (0..n).collect();
        }
        let mut rng = linalg::dist::seeded_rng(seed);
        if k.saturating_mul(4) >= n {
            linalg::dist::sample_indices(&mut rng, n, k)
        } else {
            let mut seen = std::collections::HashSet::with_capacity(k);
            let mut out = Vec::with_capacity(k);
            while out.len() < k {
                let i = rand::Rng::random_range(&mut rng, 0..n);
                if seen.insert(i) {
                    out.push(i);
                }
            }
            out
        }
    }

    /// Number of design points.
    pub fn len(&self) -> usize {
        match &self.backing {
            Backing::Explicit(configs) => configs.len(),
            Backing::Generated { len, .. } => *len,
        }
    }

    /// Whether the space is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_has_exactly_4608_points() {
        let space = DesignSpace::table1();
        assert_eq!(space.len(), 4608);
    }

    #[test]
    fn table1_points_are_distinct() {
        let space = DesignSpace::table1();
        let mut set = std::collections::HashSet::new();
        for c in space.configs() {
            assert!(set.insert(*c), "duplicate config {c:?}");
        }
    }

    #[test]
    fn table1_respects_value_domains() {
        for c in DesignSpace::table1().configs() {
            assert!([16, 32, 64].contains(&c.l1d.size_kb));
            assert!([16, 32, 64].contains(&c.l1i.size_kb));
            assert!([32, 64].contains(&c.l1d.line_b));
            assert_eq!(c.l1d.line_b, c.l1i.line_b);
            assert!([256, 1024].contains(&c.l2.size_kb));
            assert_eq!(c.l2.line_b, 128);
            assert!([4, 8].contains(&c.l2.assoc));
            if let Some(l3) = c.l3 {
                assert_eq!((l3.size_kb, l3.line_b, l3.assoc), (8192, 256, 8));
            }
            assert!([4, 8].contains(&c.width));
            assert!([128, 256].contains(&c.ruu_size));
            assert!([64, 128].contains(&c.lsq_size));
            assert_eq!(c.lsq_size * 2, c.ruu_size);
            assert!([256, 1024].contains(&c.itlb_kb));
            assert!([512, 2048].contains(&c.dtlb_kb));
            let expect_fu = if c.width == 4 {
                FuConfig::NARROW
            } else {
                FuConfig::WIDE
            };
            assert_eq!(c.fu, expect_fu);
        }
    }

    #[test]
    fn features_match_names_in_length_and_count_24() {
        let f = CpuConfig::baseline().features();
        let n = CpuConfig::feature_names();
        assert_eq!(f.len(), n.len());
        assert_eq!(f.len(), 24, "Table 1 has 24 parameters");
        assert_eq!(n[CpuConfig::BPRED_FEATURE_INDEX], "bpred");
    }

    #[test]
    fn reduced_space_is_subset() {
        let full: std::collections::HashSet<_> =
            DesignSpace::table1().configs().iter().copied().collect();
        let reduced = DesignSpace::table1_reduced();
        assert_eq!(reduced.len(), 576);
        assert!(reduced.configs().iter().all(|c| full.contains(c)));
    }

    #[test]
    fn cache_geometry_sets() {
        let g = CacheGeometry {
            size_kb: 32,
            line_b: 64,
            assoc: 4,
        };
        // 32KB / 64B = 512 lines / 4 ways = 128 sets.
        assert_eq!(g.num_sets(), 128);
    }

    #[test]
    fn bpred_codes_are_distinct() {
        let codes: std::collections::HashSet<_> =
            BranchPredictorKind::ALL.iter().map(|b| b.code()).collect();
        assert_eq!(codes.len(), 4);
    }

    #[test]
    fn fu_mix_derivation_reproduces_table1_mixes() {
        assert_eq!(SpaceSpec::fu_for_width(4), FuConfig::NARROW);
        assert_eq!(SpaceSpec::fu_for_width(8), FuConfig::WIDE);
        // Degenerate widths still yield at least one unit of each kind.
        assert_eq!(SpaceSpec::fu_for_width(1).imult, 1);
    }

    #[test]
    fn generated_table1_matches_spec_len_and_stays_lazy() {
        let space = DesignSpace::table1();
        assert_eq!(space.len(), 4608);
        assert!(!space.is_materialized(), "table1 starts unmaterialized");
        let c0 = space.config_at(0);
        let last = space.config_at(4607);
        assert!(!space.is_materialized(), "config_at must not materialize");
        // Outermost axis moves slowest, innermost fastest.
        assert_eq!((c0.l1d.size_kb, c0.itlb_kb), (16, 256));
        assert_eq!((last.l1d.size_kb, last.itlb_kb), (64, 1024));
        // configs() materializes and agrees with config_at.
        assert_eq!(space.configs()[0], c0);
        assert_eq!(space.configs()[4607], last);
        assert!(space.is_materialized());
    }

    #[test]
    fn index_of_round_trips_across_unit_boundaries() {
        let space = DesignSpace::table1();
        for idx in [0usize, 1, 63, 64, 65, 2303, 2304, 4606, 4607] {
            let c = space.config_at(idx);
            assert_eq!(space.index_of(&c), Some(idx), "round-trip at {idx}");
        }
        // A config outside the lattice (untied FU mix) has no index.
        let mut alien = space.config_at(0);
        alien.fu.imult += 1;
        assert_eq!(space.index_of(&alien), None);
    }

    #[test]
    fn mega_spec_exceeds_a_million_points_without_materializing() {
        let spec = SpaceSpec::mega();
        let n = spec.try_len().expect("mega spec is valid");
        assert_eq!(n, 2_211_840);
        let space = DesignSpace::try_generate(&spec).expect("mega generates");
        assert_eq!(space.len(), n);
        let c = space.config_at(n - 1);
        assert_eq!(space.index_of(&c), Some(n - 1));
        assert!(!space.is_materialized());
    }

    #[test]
    fn content_hash_distinguishes_spaces_and_is_stable() {
        let t1 = DesignSpace::table1();
        let t1_again = DesignSpace::table1();
        assert_eq!(t1.content_hash(), t1_again.content_hash());
        let smoke = DesignSpace::try_generate(&SpaceSpec::smoke()).expect("smoke");
        let mega = DesignSpace::try_generate(&SpaceSpec::mega()).expect("mega");
        assert_ne!(t1.content_hash(), smoke.content_hash());
        assert_ne!(t1.content_hash(), mega.content_hash());
        // An explicit space with the same points hashes in its own domain.
        let explicit = DesignSpace::from_configs(t1.iter().collect());
        assert_eq!(explicit.len(), t1.len());
        assert_ne!(explicit.content_hash(), t1.content_hash());
        // ...but equal explicit lists agree.
        let explicit2 = DesignSpace::from_configs(t1.iter().collect());
        assert_eq!(explicit.content_hash(), explicit2.content_hash());
    }

    #[test]
    fn table1_every_is_the_decimated_explicit_list() {
        let t1 = DesignSpace::table1();
        for (step, len) in [(1, 4608), (4, 1152), (16, 288)] {
            let every = DesignSpace::table1_every(step);
            let by_hand =
                DesignSpace::from_configs(t1.configs().iter().copied().step_by(step).collect());
            assert_eq!(every.len(), len);
            assert_eq!(every.configs(), by_hand.configs());
            // Ledgers written for the hand-built space still resume.
            assert_eq!(every.content_hash(), by_hand.content_hash());
            assert!(every.spec().is_none());
        }
    }

    #[test]
    fn invalid_specs_are_rejected_with_invalid_input() {
        let mut empty_axis = SpaceSpec::table1();
        empty_axis.width.clear();
        let e = DesignSpace::try_generate(&empty_axis).expect_err("empty axis");
        assert_eq!(e.kind(), "invalid");
        let mut duplicated = SpaceSpec::table1();
        duplicated.l1d_size_kb.push(16);
        let e = DesignSpace::try_generate(&duplicated).expect_err("dup axis");
        assert_eq!(e.kind(), "invalid");
        let mut zero = SpaceSpec::table1();
        zero.l1_line_b[0] = 0;
        let e = DesignSpace::try_generate(&zero).expect_err("zero line");
        assert_eq!(e.kind(), "invalid");
    }

    #[test]
    fn seeded_pool_is_deterministic_distinct_and_in_range() {
        let space = DesignSpace::try_generate(&SpaceSpec::mega()).expect("mega");
        let a = space.seeded_pool(0xBEEF, 100);
        let b = space.seeded_pool(0xBEEF, 100);
        assert_eq!(a, b, "same seed, same pool");
        assert_ne!(a, space.seeded_pool(0xBEF0, 100), "seed changes pool");
        let mut sorted = a.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 100, "indices are distinct");
        assert!(sorted.iter().all(|&i| i < space.len()));
        assert!(!space.is_materialized(), "pooling must not materialize");
        // Near-exhaustive draws fall back to the Fisher-Yates path.
        let small = DesignSpace::try_generate(&SpaceSpec::smoke()).expect("smoke");
        let all = small.seeded_pool(1, small.len() + 10);
        assert_eq!(all.len(), small.len());
    }

    #[test]
    fn smoke_spec_is_48_points_of_table1_values() {
        let space = DesignSpace::try_generate(&SpaceSpec::smoke()).expect("smoke");
        assert_eq!(space.len(), 48);
        let full: std::collections::HashSet<_> = DesignSpace::table1().iter().collect();
        assert!(space.iter().all(|c| full.contains(&c)));
    }
}
