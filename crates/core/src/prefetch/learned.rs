//! `learned`: a table-driven prefetcher whose delta table is trained
//! offline from exported `UVMT` traces.
//!
//! The runtime half of the train→evaluate workflow from Long et al.:
//! `train_prefetcher` distills a recorded fault stream into a `UVML`
//! delta table ([`LearnedTable`]), and `learned:table=PATH` loads it
//! at policy-build time. At run time the policy is pure lookup — it
//! tracks the last `depth` fault deltas (the table fixes `depth`) and
//! predicts forward exactly like `markov`, but with frozen,
//! whole-trace statistics instead of an online table still warming
//! up. A bare `learned` (no table) predicts nothing: it degenerates
//! to the no-op prefetcher, which keeps the name buildable from every
//! CLI without a file in hand.

use std::collections::VecDeque;

use uvm_types::rng::SmallRng;
use uvm_types::PageId;

use crate::alloc::AllocId;
use crate::groups::PageGroups;
use crate::registry::{ParamSpec, PolicyError};
use crate::spec::PolicySpec;
use crate::trace::LearnedTable;
use crate::view::ResidencyView;

use super::markov::{groups_from_candidates, predict_chain};
use super::{parse_param, Prefetcher};

/// Default cap on pages predicted per fault.
const DEFAULT_DEGREE: usize = 16;

/// `learned`: offline-trained delta-table prefetcher.
#[derive(Clone, Debug)]
pub struct LearnedPrefetcher {
    table: LearnedTable,
    degree: usize,
    /// Last `table.depth()` fault deltas, oldest first.
    history: VecDeque<i64>,
    /// Previous fault's page index.
    last_fault: Option<u64>,
}

impl LearnedPrefetcher {
    /// The parameters `learned:key=val,...` accepts.
    pub const PARAMS: &'static [ParamSpec] = &[
        ParamSpec {
            key: "table",
            summary: "path to a UVML delta table from train_prefetcher",
            default: "(none: predict nothing)",
        },
        ParamSpec {
            key: "degree",
            summary: "max pages predicted per fault",
            default: "16",
        },
    ];

    /// A prefetcher serving the given trained table.
    pub fn with_table(table: LearnedTable, degree: usize) -> Self {
        LearnedPrefetcher {
            table,
            degree: degree.max(1),
            history: VecDeque::new(),
            last_fault: None,
        }
    }

    /// Builds from a validated spec, loading the table file if one is
    /// named (`learned:table=results/trained/bp.tbl`).
    pub fn from_spec(spec: &PolicySpec) -> Result<Self, PolicyError> {
        let table = match spec.param("table") {
            Some(path) => LearnedTable::load(std::path::Path::new(path))
                .map_err(|reason| PolicyError::bad_param("learned", "table", path, reason))?,
            None => LearnedTable::empty(1),
        };
        let degree = parse_param(spec, "degree", DEFAULT_DEGREE, 1..=512)?;
        Ok(Self::with_table(table, degree))
    }

    /// The loaded table (empty for a bare `learned`).
    pub fn table(&self) -> &LearnedTable {
        &self.table
    }
}

impl Prefetcher for LearnedPrefetcher {
    fn name(&self) -> &'static str {
        "learned"
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
                self.history.push_back(delta);
                if self.history.len() > self.table.depth() {
                    self.history.pop_front();
                }
            }
        }
        self.last_fault = Some(page.index());

        if self.table.is_empty() || self.history.len() < self.table.depth() {
            return;
        }
        let context: Vec<i64> = self.history.iter().copied().collect();
        let (candidates, chain, chain_end) = predict_chain(
            |ctx| self.table.predict(ctx).to_vec(),
            &context,
            page.index(),
            self.degree,
        );
        // Advance the modeled fault stream through the issued chain:
        // when the predictions land, the next real fault continues
        // from the end of the prefetched run, so its delta (and the
        // resulting context) stays inside the training distribution.
        // Anchoring on the real fault instead would measure a one-shot
        // +N jump over the prefetched pages — a delta the no-prefetch
        // training trace never contains — and the table would go
        // silent right after its first hit. The table is frozen, so a
        // wrong chain costs one out-of-distribution lookup, the same
        // as before the advance.
        if !chain.is_empty() {
            for &d in &chain {
                self.history.push_back(d);
                if self.history.len() > self.table.depth() {
                    self.history.pop_front();
                }
            }
            self.last_fault = Some(chain_end);
        }
        groups_from_candidates(view, page, alloc, candidates, groups);
    }

    fn box_clone(&self) -> Box<dyn Prefetcher> {
        Box::new(self.clone())
    }

    fn save_state(&self, w: &mut uvm_types::codec::ByteWriter) {
        // The table is frozen (rebuilt from the spec's path); only the
        // modeled fault stream is mutable state.
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
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{train_table, TraceKind, TraceRecord};

    #[test]
    fn bare_learned_predicts_nothing() {
        let p = LearnedPrefetcher::from_spec(&"learned".parse().unwrap()).unwrap();
        assert!(p.table().is_empty());
        assert_eq!(p.name(), "learned");
    }

    #[test]
    fn missing_table_file_is_a_bad_param() {
        let err =
            LearnedPrefetcher::from_spec(&"learned:table=/nonexistent/x.tbl".parse().unwrap())
                .unwrap_err();
        let PolicyError::BadParam { policy, param, .. } = &err else {
            panic!("expected BadParam, got {err:?}");
        };
        assert_eq!((policy.as_str(), param.as_str()), ("learned", "table"));
    }

    #[test]
    fn trained_table_round_trips_through_the_spec_path() {
        // Train on a stride-1 fault stream, save, load via from_spec.
        let records: Vec<TraceRecord> = (0..64u64)
            .map(|i| TraceRecord {
                kind: TraceKind::Fault,
                cycle: i,
                page: 1000 + i,
            })
            .collect();
        let table = train_table(&records, 2, 4);
        let dir = std::env::temp_dir().join("uvm-learned-test");
        let path = dir.join("stride.tbl");
        table.save(&path).unwrap();

        let spec: PolicySpec = format!("learned:table={}", path.display()).parse().unwrap();
        let p = LearnedPrefetcher::from_spec(&spec).unwrap();
        assert_eq!(p.table(), &table);
        assert_eq!(p.table().predict(&[1, 1]), &[1]);
        std::fs::remove_dir_all(&dir).ok();
    }
}
