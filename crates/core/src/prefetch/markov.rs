//! `markov`: an online delta-correlation (Markov-table) prefetcher
//! over the fault-page stream.
//!
//! The paper's prefetchers are stateless spatial heuristics; this one
//! is the history-driven counterpoint motivated by Long et al. (*Deep
//! Learning based Data Prefetching in CPU-GPU Unified Virtual
//! Memory*). It keeps a bounded table mapping the last `depth`
//! fault-page deltas (the *context*) to the frequencies of the delta
//! that followed, learning online with no training pass. On each
//! fault it predicts forward: every ranked next-delta from the
//! current context, then a greedy chain following the top prediction,
//! up to `degree` pages.
//!
//! Everything is deterministic — ranking ties break toward the
//! smaller delta, aging halves counts in place — so runs reproduce
//! bit-for-bit regardless of worker count, and snapshots (plain
//! clones) fork mid-run without divergence. Registered purely through
//! the policy registry; `gmmu.rs` is untouched.

use std::collections::BTreeMap;
use std::collections::VecDeque;

use uvm_types::rng::SmallRng;
use uvm_types::PageId;

use crate::alloc::AllocId;
use crate::groups::PageGroups;
use crate::registry::{ParamSpec, PolicyError};
use crate::spec::PolicySpec;
use crate::view::ResidencyView;

use super::{parse_param, Prefetcher};

/// Default context length (fault deltas remembered).
const DEFAULT_DEPTH: usize = 2;
/// Default cap on distinct contexts in the table.
const DEFAULT_TABLE: usize = 4096;
/// Default cap on pages predicted per fault.
const DEFAULT_DEGREE: usize = 16;

/// `markov`: online delta-correlation prefetcher with a bounded
/// frequency table.
#[derive(Clone, Debug)]
pub struct MarkovPrefetcher {
    depth: usize,
    max_contexts: usize,
    degree: usize,
    /// Last `depth` fault deltas, oldest first.
    history: VecDeque<i64>,
    /// Previous fault's page index.
    last_fault: Option<u64>,
    /// context → next-delta → observation count. BTreeMaps keep
    /// iteration (and thus aging and ranking) fully deterministic.
    table: BTreeMap<Vec<i64>, BTreeMap<i64, u32>>,
}

impl MarkovPrefetcher {
    /// The parameters `markov:key=val,...` accepts.
    pub const PARAMS: &'static [ParamSpec] = &[
        ParamSpec {
            key: "depth",
            summary: "context length in fault deltas",
            default: "2",
        },
        ParamSpec {
            key: "table",
            summary: "max distinct contexts kept (aged when full)",
            default: "4096",
        },
        ParamSpec {
            key: "degree",
            summary: "max pages predicted per fault",
            default: "16",
        },
    ];

    /// A prefetcher with the default parameters.
    pub fn new() -> Self {
        Self::with_params(DEFAULT_DEPTH, DEFAULT_TABLE, DEFAULT_DEGREE)
    }

    /// A prefetcher with explicit parameters (each clamped to ≥ 1).
    pub fn with_params(depth: usize, max_contexts: usize, degree: usize) -> Self {
        MarkovPrefetcher {
            depth: depth.max(1),
            max_contexts: max_contexts.max(1),
            degree: degree.max(1),
            history: VecDeque::new(),
            last_fault: None,
            table: BTreeMap::new(),
        }
    }

    /// Builds from a validated spec (`markov:depth=2,table=512,...`).
    pub fn from_spec(spec: &PolicySpec) -> Result<Self, PolicyError> {
        let depth = parse_param(spec, "depth", DEFAULT_DEPTH, 1..=16)?;
        let table = parse_param(spec, "table", DEFAULT_TABLE, 1..=1 << 20)?;
        let degree = parse_param(spec, "degree", DEFAULT_DEGREE, 1..=512)?;
        Ok(Self::with_params(depth, table, degree))
    }

    /// Records the observed transition `context → delta`, aging the
    /// table when the context cap is hit.
    fn learn(&mut self, delta: i64) {
        if self.history.len() == self.depth {
            let context: Vec<i64> = self.history.iter().copied().collect();
            let is_new = !self.table.contains_key(&context);
            if is_new && self.table.len() >= self.max_contexts {
                self.age();
            }
            if !is_new || self.table.len() < self.max_contexts {
                *self
                    .table
                    .entry(context)
                    .or_default()
                    .entry(delta)
                    .or_insert(0) += 1;
            }
        }
        self.history.push_back(delta);
        if self.history.len() > self.depth {
            self.history.pop_front();
        }
    }

    /// Halves every count and drops zeroed entries — cheap exponential
    /// decay that sheds cold contexts deterministically.
    fn age(&mut self) {
        self.table.retain(|_, nexts| {
            nexts.retain(|_, c| {
                *c /= 2;
                *c > 0
            });
            !nexts.is_empty()
        });
    }

    /// Ranked next-deltas for the current context: count descending,
    /// ties toward the smaller delta.
    fn ranked(&self, context: &[i64]) -> Vec<i64> {
        let Some(nexts) = self.table.get(context) else {
            return Vec::new();
        };
        let mut ranked: Vec<(i64, u32)> = nexts.iter().map(|(&d, &c)| (d, c)).collect();
        ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        ranked.into_iter().map(|(d, _)| d).collect()
    }
}

impl Default for MarkovPrefetcher {
    fn default() -> Self {
        Self::new()
    }
}

impl Prefetcher for MarkovPrefetcher {
    fn name(&self) -> &'static str {
        "markov"
    }

    fn plan(
        &mut self,
        view: &ResidencyView<'_>,
        _rng: &mut SmallRng,
        page: PageId,
        alloc: AllocId,
        groups: &mut PageGroups,
    ) {
        if let Some(last) = self.last_fault {
            let delta = page.index() as i64 - last as i64;
            if delta != 0 {
                self.learn(delta);
            }
        }
        self.last_fault = Some(page.index());

        if self.history.len() < self.depth {
            return;
        }
        let context: Vec<i64> = self.history.iter().copied().collect();
        let (candidates, _, _) =
            predict_chain(|ctx| self.ranked(ctx), &context, page.index(), self.degree);
        groups_from_candidates(view, page, alloc, candidates, groups);
    }

    fn box_clone(&self) -> Box<dyn Prefetcher> {
        Box::new(self.clone())
    }

    fn save_state(&self, w: &mut uvm_types::codec::ByteWriter) {
        w.put_usize(self.history.len());
        for &d in &self.history {
            w.put_i64(d);
        }
        match self.last_fault {
            Some(p) => {
                w.put_bool(true);
                w.put_u64(p);
            }
            None => w.put_bool(false),
        }
        w.put_usize(self.table.len());
        for (context, nexts) in &self.table {
            w.put_usize(context.len());
            for &d in context {
                w.put_i64(d);
            }
            w.put_usize(nexts.len());
            for (&d, &c) in nexts {
                w.put_i64(d);
                w.put_u32(c);
            }
        }
    }

    fn load_state(
        &mut self,
        r: &mut uvm_types::codec::ByteReader<'_>,
    ) -> Result<(), uvm_types::codec::CodecError> {
        let n = r.get_usize()?;
        self.history.clear();
        for _ in 0..n {
            self.history.push_back(r.get_i64()?);
        }
        self.last_fault = if r.get_bool()? {
            Some(r.get_u64()?)
        } else {
            None
        };
        self.table.clear();
        let contexts = r.get_usize()?;
        for _ in 0..contexts {
            let len = r.get_usize()?;
            // Capped like every decoded count: each delta takes a byte.
            let mut context = Vec::with_capacity(len.min(r.remaining()));
            for _ in 0..len {
                context.push(r.get_i64()?);
            }
            let mut nexts = BTreeMap::new();
            let entries = r.get_usize()?;
            for _ in 0..entries {
                let d = r.get_i64()?;
                nexts.insert(d, r.get_u32()?);
            }
            self.table.insert(context, nexts);
        }
        Ok(())
    }
}

/// Expands a delta predictor into up to `degree` candidate page
/// indices from `page`: first the full ranked breadth of the current
/// context, then a greedy chain following each step's top prediction.
/// Shared by `markov` (online table) and `learned` (offline table).
/// Besides the candidates, returns the greedy-chain deltas actually
/// followed and the page index the chain ended on, so a caller can
/// advance its modeled fault stream through its own predictions.
pub(super) fn predict_chain(
    ranked: impl Fn(&[i64]) -> Vec<i64>,
    context: &[i64],
    page: u64,
    degree: usize,
) -> (Vec<u64>, Vec<i64>, u64) {
    let mut out: Vec<u64> = Vec::with_capacity(degree);
    let push = |out: &mut Vec<u64>, base: u64, delta: i64| -> Option<u64> {
        let target = base.checked_add_signed(delta)?;
        if !out.contains(&target) {
            out.push(target);
        }
        Some(target)
    };

    // Breadth: every ranked prediction one step out.
    let first = ranked(context);
    for &d in first.iter().take(degree) {
        push(&mut out, page, d);
    }

    // Depth: greedily follow the top prediction. The walk is capped at
    // `degree` steps: an online table can learn a cycle with zero net
    // displacement (a ping-pong fault stream p, p+N, p, p+N trains
    // [N,-N]→N and [-N,N]→-N), where every target is already in `out`
    // and an unbounded walk would spin forever. `degree` steps lose no
    // productive chain — each non-growing step retraces one of the
    // ≤ degree breadth candidates, and growing steps stop at `degree`
    // candidates anyway.
    let mut ctx: Vec<i64> = context.to_vec();
    let mut chain: Vec<i64> = Vec::new();
    let mut at = page;
    let mut steps = first.first().copied();
    for _ in 0..degree {
        if out.len() >= degree {
            break;
        }
        let Some(d) = steps else { break };
        let Some(next) = push(&mut out, at, d) else {
            break;
        };
        chain.push(d);
        at = next;
        ctx.rotate_left(1);
        *ctx.last_mut().expect("depth >= 1") = d;
        steps = ranked(&ctx).first().copied();
    }
    out.truncate(degree);
    (out, chain, at)
}

/// Filters candidate page indices to invalid pages inside the faulty
/// allocation and appends contiguous runs to `groups`, one transfer
/// each.
pub(super) fn groups_from_candidates(
    view: &ResidencyView<'_>,
    page: PageId,
    alloc: AllocId,
    mut candidates: Vec<u64>,
    groups: &mut PageGroups,
) {
    let a = view.alloc(alloc);
    let (lo, hi) = (a.first_page().index(), a.end_page().index());
    candidates.retain(|&c| c >= lo && c < hi && c != page.index());
    candidates.sort_unstable();
    candidates.dedup();

    let mut prev: Option<u64> = None;
    for c in candidates {
        let p = PageId::new(c);
        if view.is_valid(p) {
            continue;
        }
        if prev.is_some_and(|q| c != q + 1) {
            groups.end_group();
        }
        groups.push(p);
        prev = Some(c);
    }
    groups.end_group();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn learns_and_ranks_transitions() {
        let mut m = MarkovPrefetcher::with_params(1, 16, 4);
        // Delta stream: 1,1,1,2 — context [1] sees next 1 twice, 2 once.
        for d in [1i64, 1, 1, 2] {
            m.learn(d);
        }
        assert_eq!(m.ranked(&[1]), vec![1, 2]);
        assert_eq!(m.ranked(&[2]), Vec::<i64>::new());
    }

    #[test]
    fn aging_bounds_the_table() {
        let mut m = MarkovPrefetcher::with_params(1, 4, 4);
        // 8 distinct contexts: aging must keep the table at the cap.
        for i in 0..8i64 {
            m.history.clear();
            m.history.push_back(i * 10);
            m.learn(1);
        }
        assert!(m.table.len() <= 4, "table has {} contexts", m.table.len());
    }

    #[test]
    fn chain_prediction_extends_sequential_runs() {
        // A pure stride-1 predictor chains to the full degree.
        let (got, chain, end) = predict_chain(|_| vec![1], &[1, 1], 100, 5);
        assert_eq!(got, vec![101, 102, 103, 104, 105]);
        // The chain's first step retraces the breadth candidate at
        // 101, so it walks all five hops 100 → 105.
        assert_eq!(chain, vec![1, 1, 1, 1, 1]);
        assert_eq!(end, 105);
    }

    #[test]
    fn chain_prediction_mixes_breadth_then_depth() {
        // Context predicts deltas 1 and 8; breadth gives 101 and 108,
        // the chain then follows the top prediction (1) onward.
        let (got, _, _) = predict_chain(|_| vec![1, 8], &[1], 100, 4);
        assert_eq!(got, vec![101, 108, 102, 103]);
    }

    #[test]
    fn cyclic_predictions_terminate() {
        // A ping-pong table (… ,5 → -5 and …,-5 → 5) predicts a cycle
        // with zero net displacement: after the first two hops every
        // target is already a candidate, so an unbounded greedy walk
        // would never grow `out` again and spin forever.
        let ranked = |ctx: &[i64]| vec![if ctx.last() == Some(&5) { -5 } else { 5 }];
        let (got, chain, _) = predict_chain(ranked, &[5, 5], 100, 8);
        assert_eq!(got, vec![95, 100]);
        assert!(chain.len() <= 8, "chain bounded at degree");
    }

    #[test]
    fn markov_plan_terminates_on_ping_pong_fault_stream() {
        // End-to-end: the online table trained by an eviction-thrashing
        // ping-pong stream (p, p+N, p, p+N, …) must not hang `plan`.
        let mut m = MarkovPrefetcher::with_params(2, 64, 8);
        for d in [50i64, -50, 50, -50, 50, -50] {
            m.learn(d);
        }
        let (got, _, _) = predict_chain(|ctx| m.ranked(ctx), &[50, -50], 1000, m.degree);
        assert!(got.len() <= m.degree);
    }

    #[test]
    fn negative_deltas_stay_in_range() {
        let (got, _, _) = predict_chain(|_| vec![-5], &[-5], 7, 3);
        // 7-5=2, then 2-5 would underflow: chain stops.
        assert_eq!(got, vec![2]);
    }

    #[test]
    fn spec_params_are_parsed_and_validated() {
        let m = MarkovPrefetcher::from_spec(&"markov:degree=4,depth=3,table=64".parse().unwrap())
            .unwrap();
        assert_eq!((m.depth, m.max_contexts, m.degree), (3, 64, 4));

        let err = MarkovPrefetcher::from_spec(&"markov:depth=zero".parse().unwrap()).unwrap_err();
        assert!(matches!(err, PolicyError::BadParam { .. }), "{err:?}");
        let err = MarkovPrefetcher::from_spec(&"markov:depth=0".parse().unwrap()).unwrap_err();
        assert!(err.to_string().contains("out of range"), "{err}");
    }

    #[test]
    fn load_state_rejects_a_context_length_the_image_cannot_hold() {
        use uvm_types::codec::{ByteReader, ByteWriter};
        let mut w = ByteWriter::new();
        w.put_usize(0); // history
        w.put_bool(false); // last fault
        w.put_usize(1); // one context ...
        w.put_usize(1 << 40); // ... claiming 2^40 deltas
        w.put_i64(1);
        let image = w.into_bytes();
        let mut m = MarkovPrefetcher::with_params(2, 16, 4);
        assert!(m.load_state(&mut ByteReader::new(&image)).is_err());
    }
}
