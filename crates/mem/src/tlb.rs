//! Per-SM translation lookaside buffer.
//!
//! The paper models a fully associative TLB with single-cycle lookup
//! (Sec. 6.1, after Pichai et al.); misses are relayed to the GMMU for
//! a page-table walk. Architecturally the model is LRU-replaced and
//! fully associative; the *implementation* here is a slot slab on an
//! intrusive LRU list, found through a dense page-indexed slot table,
//! so `lookup`, `fill`, and `invalidate` are all O(1) and hash-free
//! instead of the O(capacity) scans of a naive recency array.
//!
//! The slot table holds one `u16` per page index up to the highest
//! page ever filled, growing lazily. The GMMU's 2 MB-aligned bump
//! allocator starts at address zero, so the pages a simulation touches
//! form a small dense range and the table stays a few bytes per page.
//!
//! Two API layers share the same structure:
//!
//! * the plain [`lookup`](Tlb::lookup) / [`fill`](Tlb::fill) /
//!   [`invalidate`](Tlb::invalidate) surface, for standalone use, and
//! * the generation-stamped [`lookup_gen`](Tlb::lookup_gen) /
//!   [`fill_after_miss`](Tlb::fill_after_miss) surface the engine's
//!   shootdown protocol uses (see
//!   [`ShootdownDirectory`](crate::ShootdownDirectory)): each entry
//!   records the page generation it translated, and a lookup only hits
//!   when the stamp still matches the current generation — so a page
//!   eviction invalidates every SM's cached translation by bumping one
//!   counter, and a stale entry can never be observed as a hit even
//!   before its slot is reclaimed.
//!
//! [`ReferenceTlb`] preserves the previous `VecDeque` implementation
//! as an executable specification for differential tests and
//! head-to-head microbenches.

use std::collections::HashMap;

use uvm_types::hash::FxBuildHasher;
use uvm_types::{LargePageId, PageId};

/// Result of a TLB lookup.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TlbLookup {
    /// Translation cached; access proceeds without a walk.
    Hit,
    /// Translation absent; the access is relayed to the GMMU.
    Miss,
}

/// The precise inverse record of one mutating TLB operation, produced
/// by the `*_logged` variants and consumed by [`Tlb::undo`].
///
/// The sharded engine executes events speculatively between barriers
/// and must be able to rewind a TLB to its exact pre-event state when
/// a cross-shard serialization point (a far-fault) lands earlier in
/// the canonical order. Every observable of the TLB — recency order,
/// entry set, generation stamps, hit/miss counters, the huge side
/// table — is restored exactly; slot indices and free-list order are
/// implementation details no lookup can observe (they are not even
/// serialized by [`Tlb::save_state`]), and the inverses below restore
/// those too, so undo is literal, not merely observational.
#[derive(Clone, Copy, Debug)]
pub enum TlbOp {
    /// A [`lookup_gen`](Tlb::lookup_gen) hit: the slot moved to the
    /// MRU end; `prev`/`next` are its list neighbours beforehand.
    LookupHit {
        /// Slot that was touched.
        slot: u32,
        /// Its previous-neighbour slot before the touch (`NIL` = LRU).
        prev: u32,
        /// Its next-neighbour slot before the touch (`NIL` = MRU).
        next: u32,
    },
    /// A [`lookup_gen`](Tlb::lookup_gen) miss that reclaimed a stale
    /// entry: the slot was unlinked, freed, and unindexed (its stored
    /// page/generation were left in place).
    LookupStale {
        /// The page whose stale entry was reclaimed.
        page: PageId,
        /// The reclaimed slot.
        slot: u32,
        /// Its previous-neighbour slot before the unlink.
        prev: u32,
        /// Its next-neighbour slot before the unlink.
        next: u32,
    },
    /// A [`lookup_gen`](Tlb::lookup_gen) miss on an absent page: only
    /// the miss counter moved.
    LookupAbsent,
    /// A fill that evicted the LRU victim and reused its slot.
    FillEvict {
        /// The newly installed page.
        page: PageId,
        /// The evicted page (previous occupant of `slot`).
        victim: PageId,
        /// The victim's generation stamp.
        victim_generation: u32,
        /// The reused slot (was the LRU).
        slot: u32,
        /// The victim's next-neighbour before the unlink (it had no
        /// previous neighbour: it was the LRU end).
        next: u32,
    },
    /// A fill that reused a free-list slot.
    FillFree {
        /// The newly installed page.
        page: PageId,
        /// The slot popped from the free list.
        slot: u32,
    },
    /// A fill that grew the slot slab.
    FillGrow {
        /// The newly installed page (in the last slab slot).
        page: PageId,
    },
    /// A [`lookup_huge`](Tlb::lookup_huge) hit: only the hit counter
    /// moved.
    HugeHit,
    /// A [`lookup_huge`](Tlb::lookup_huge) that reclaimed a stale
    /// huge entry.
    HugeStale {
        /// The large page whose entry was reclaimed.
        lp: LargePageId,
        /// The reclaimed (stale) epoch stamp.
        stamp: u64,
    },
    /// A [`lookup_huge`](Tlb::lookup_huge) on an absent large page:
    /// nothing moved.
    HugeAbsent,
    /// A [`fill_huge`](Tlb::fill_huge): the previous stamp (if any)
    /// was overwritten.
    FillHuge {
        /// The filled large page.
        lp: LargePageId,
        /// The stamp it held before, `None` if absent.
        prev: Option<u64>,
    },
}

/// Index sentinel: no slot.
const NIL: u32 = u32::MAX;

/// Slot-table sentinel: the page is not cached.
const NO_SLOT: u16 = u16::MAX;

/// One cached translation, threaded on the intrusive recency list.
#[derive(Clone, Copy, Debug)]
struct Slot {
    page: PageId,
    /// Page generation at fill time; a lookup hit requires this to
    /// still equal the page's current generation.
    generation: u32,
    prev: u32,
    next: u32,
}

/// A fully associative, LRU-replaced TLB with O(1) lookup, fill, and
/// invalidate (dense page → slot table + intrusive doubly-linked
/// recency list).
///
/// # Examples
///
/// ```
/// use uvm_mem::{Tlb, TlbLookup};
/// use uvm_types::PageId;
///
/// let mut tlb = Tlb::new(2);
/// assert_eq!(tlb.lookup(PageId::new(1)), TlbLookup::Miss);
/// tlb.fill(PageId::new(1));
/// assert_eq!(tlb.lookup(PageId::new(1)), TlbLookup::Hit);
/// ```
#[derive(Clone, Debug)]
pub struct Tlb {
    /// Page index → slot id, `NO_SLOT` when absent; grown lazily to
    /// the highest page filled.
    index: Vec<u16>,
    slots: Vec<Slot>,
    /// Recycled slot indices.
    free: Vec<u32>,
    /// Least recently used slot (eviction side), `NIL` when empty.
    lru: u32,
    /// Most recently used slot, `NIL` when empty.
    mru: u32,
    capacity: usize,
    hits: u64,
    misses: u64,
    /// Huge-page side table: one entry translates a whole 2 MB large
    /// page (the coalesced-mapping payoff — 512 pages, one slot).
    /// Modeled as a separate structure, like the dedicated large-page
    /// TLBs on real GPUs, so it does not contend with 4 KB entries for
    /// `capacity`; it holds at most one entry per huge-mapped large
    /// page. Entries are stamped with the GMMU's per-large-page
    /// mapping epoch, so a splinter invalidates every SM's entry by
    /// bumping one counter (the same trick `lookup_gen` plays with the
    /// [`ShootdownDirectory`](crate::ShootdownDirectory)).
    huge: HashMap<LargePageId, u64, FxBuildHasher>,
}

impl Tlb {
    /// Largest supported capacity: slot ids must fit the `u16` slot
    /// table below its sentinel.
    pub const MAX_CAPACITY: usize = NO_SLOT as usize;

    /// Creates an empty TLB holding at most `capacity` translations.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or exceeds
    /// [`MAX_CAPACITY`](Self::MAX_CAPACITY).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "TLB capacity must be non-zero");
        assert!(
            capacity <= Self::MAX_CAPACITY,
            "TLB capacity {capacity} exceeds the {} slot ids the u16 slot table holds",
            Self::MAX_CAPACITY
        );
        Tlb {
            index: Vec::new(),
            slots: Vec::with_capacity(capacity),
            free: Vec::new(),
            lru: NIL,
            mru: NIL,
            capacity,
            hits: 0,
            misses: 0,
            huge: HashMap::default(),
        }
    }

    /// Looks up `page`, updating recency on a hit. Equivalent to
    /// [`lookup_gen`](Self::lookup_gen) at generation 0 (the
    /// generation every [`fill`](Self::fill) stamps).
    pub fn lookup(&mut self, page: PageId) -> TlbLookup {
        self.lookup_gen(page, 0)
    }

    /// Looks up `page` against its current generation, updating
    /// recency on a hit.
    ///
    /// An entry whose stamp no longer matches `generation` was shot
    /// down by a [`ShootdownDirectory::bump`] and is *never* observable
    /// as a hit: it counts as a miss, and its slot is reclaimed on the
    /// spot. (Under the engine's protocol the directory reclaims
    /// holder slots eagerly, so this lazy path is a second line of
    /// defence that also serves users who skip holder tracking.)
    ///
    /// [`ShootdownDirectory::bump`]: crate::ShootdownDirectory::bump
    pub fn lookup_gen(&mut self, page: PageId, generation: u32) -> TlbLookup {
        match self.slot_of(page) {
            Some(slot) => {
                if self.slots[slot as usize].generation == generation {
                    self.touch(slot);
                    self.hits += 1;
                    TlbLookup::Hit
                } else {
                    // Stale translation: logically absent since the
                    // generation bump.
                    self.clear_slot(page);
                    self.unlink(slot);
                    self.free.push(slot);
                    self.misses += 1;
                    TlbLookup::Miss
                }
            }
            None => {
                self.misses += 1;
                TlbLookup::Miss
            }
        }
    }

    /// Installs a translation for `page`, evicting the LRU entry if the
    /// TLB is full. Filling an already-present page refreshes recency.
    /// Equivalent to [`fill_gen`](Self::fill_gen) at generation 0.
    pub fn fill(&mut self, page: PageId) {
        let _ = self.fill_gen(page, 0);
    }

    /// Installs a translation for `page` stamped with `generation`,
    /// evicting the LRU entry if the TLB is full; returns the evicted
    /// page, if any. Filling an already-present page refreshes recency
    /// and re-stamps it.
    pub fn fill_gen(&mut self, page: PageId, generation: u32) -> Option<PageId> {
        if let Some(slot) = self.slot_of(page) {
            self.slots[slot as usize].generation = generation;
            self.touch(slot);
            return None;
        }
        self.insert_new(page, generation)
    }

    /// Fast-path fill for the access flow where [`lookup_gen`]
    /// (or [`lookup`](Self::lookup)) just missed on `page`: skips the
    /// present-entry probe `fill` pays, inserting directly. Returns
    /// the page evicted to make room, if any.
    ///
    /// # Panics
    ///
    /// In debug builds, panics if `page` is already cached — callers
    /// must only use this immediately after a miss on `page`.
    ///
    /// [`lookup_gen`]: Self::lookup_gen
    pub fn fill_after_miss(&mut self, page: PageId, generation: u32) -> Option<PageId> {
        debug_assert!(
            self.slot_of(page).is_none(),
            "fill_after_miss({page}) but the page is cached; use fill"
        );
        self.insert_new(page, generation)
    }

    /// Removes the translation for `page` if present, returning whether
    /// an entry was removed (the eager per-TLB shootdown a page
    /// eviction performs; with a [`ShootdownDirectory`] only the actual
    /// holder TLBs are visited).
    ///
    /// [`ShootdownDirectory`]: crate::ShootdownDirectory
    pub fn invalidate(&mut self, page: PageId) -> bool {
        match self.slot_of(page) {
            Some(slot) => {
                self.clear_slot(page);
                self.unlink(slot);
                self.free.push(slot);
                true
            }
            None => false,
        }
    }

    /// Looks up a huge-page translation for `lp` at the GMMU's current
    /// mapping epoch. A hit covers every 4 KB page of the large page
    /// and counts once in the hit counter. A stale entry (epoch moved
    /// on: the mapping was splintered, possibly re-coalesced) is
    /// reclaimed on the spot and does *not* count a miss — the engine
    /// falls through to the 4 KB [`lookup_gen`](Self::lookup_gen),
    /// which does.
    pub fn lookup_huge(&mut self, lp: LargePageId, generation: u64) -> bool {
        match self.huge.get(&lp) {
            Some(&stamp) if stamp == generation => {
                self.hits += 1;
                true
            }
            Some(_) => {
                self.huge.remove(&lp);
                false
            }
            None => false,
        }
    }

    /// Installs (or re-stamps) the huge-page translation for `lp`.
    pub fn fill_huge(&mut self, lp: LargePageId, generation: u64) {
        self.huge.insert(lp, generation);
    }

    /// Removes the huge-page translation for `lp` if present (eager
    /// shootdown; epoch bumps make this optional).
    pub fn invalidate_huge(&mut self, lp: LargePageId) -> bool {
        self.huge.remove(&lp).is_some()
    }

    /// [`lookup_gen`](Self::lookup_gen) that also returns the inverse
    /// record for [`undo`](Self::undo).
    pub fn lookup_gen_logged(&mut self, page: PageId, generation: u32) -> (TlbLookup, TlbOp) {
        match self.slot_of(page) {
            Some(slot) => {
                let Slot { prev, next, .. } = self.slots[slot as usize];
                if self.slots[slot as usize].generation == generation {
                    self.touch(slot);
                    self.hits += 1;
                    (TlbLookup::Hit, TlbOp::LookupHit { slot, prev, next })
                } else {
                    self.clear_slot(page);
                    self.unlink(slot);
                    self.free.push(slot);
                    self.misses += 1;
                    (
                        TlbLookup::Miss,
                        TlbOp::LookupStale {
                            page,
                            slot,
                            prev,
                            next,
                        },
                    )
                }
            }
            None => {
                self.misses += 1;
                (TlbLookup::Miss, TlbOp::LookupAbsent)
            }
        }
    }

    /// [`lookup_huge`](Self::lookup_huge) that also returns the
    /// inverse record for [`undo`](Self::undo).
    pub fn lookup_huge_logged(&mut self, lp: LargePageId, generation: u64) -> (bool, TlbOp) {
        match self.huge.get(&lp) {
            Some(&stamp) if stamp == generation => {
                self.hits += 1;
                (true, TlbOp::HugeHit)
            }
            Some(&stamp) => {
                self.huge.remove(&lp);
                (false, TlbOp::HugeStale { lp, stamp })
            }
            None => (false, TlbOp::HugeAbsent),
        }
    }

    /// [`fill_huge`](Self::fill_huge) that also returns the inverse
    /// record for [`undo`](Self::undo).
    pub fn fill_huge_logged(&mut self, lp: LargePageId, generation: u64) -> TlbOp {
        let prev = self.huge.insert(lp, generation);
        TlbOp::FillHuge { lp, prev }
    }

    /// [`fill_after_miss`](Self::fill_after_miss) that also returns
    /// the inverse record for [`undo`](Self::undo).
    ///
    /// # Panics
    ///
    /// In debug builds, panics if `page` is already cached.
    pub fn fill_after_miss_logged(
        &mut self,
        page: PageId,
        generation: u32,
    ) -> (Option<PageId>, TlbOp) {
        debug_assert!(
            self.slot_of(page).is_none(),
            "fill_after_miss_logged({page}) but the page is cached; use fill"
        );
        if self.len() == self.capacity {
            let slot = self.lru;
            let Slot {
                page: victim,
                generation: victim_generation,
                next,
                ..
            } = self.slots[slot as usize];
            self.clear_slot(victim);
            self.unlink(slot);
            let s = &mut self.slots[slot as usize];
            s.page = page;
            s.generation = generation;
            self.push_mru(slot);
            self.set_slot(page, slot);
            (
                Some(victim),
                TlbOp::FillEvict {
                    page,
                    victim,
                    victim_generation,
                    slot,
                    next,
                },
            )
        } else if let Some(slot) = self.free.pop() {
            let s = &mut self.slots[slot as usize];
            s.page = page;
            s.generation = generation;
            self.push_mru(slot);
            self.set_slot(page, slot);
            (None, TlbOp::FillFree { page, slot })
        } else {
            self.slots.push(Slot {
                page,
                generation,
                prev: NIL,
                next: NIL,
            });
            let slot = (self.slots.len() - 1) as u32;
            self.push_mru(slot);
            self.set_slot(page, slot);
            (None, TlbOp::FillGrow { page })
        }
    }

    /// Reverts one logged operation. Ops must be undone in exact
    /// reverse order of application; the TLB is then restored
    /// *literally* — recency list, slot layout, free-list order,
    /// counters, and huge table all match the pre-op state, so
    /// subsequent behavior is bit-for-bit what it would have been had
    /// the reverted ops never run.
    pub fn undo(&mut self, op: TlbOp) {
        match op {
            TlbOp::LookupHit { slot, prev, next } => {
                self.hits -= 1;
                self.unlink(slot);
                self.insert_between(slot, prev, next);
            }
            TlbOp::LookupStale {
                page,
                slot,
                prev,
                next,
            } => {
                self.misses -= 1;
                let freed = self.free.pop();
                debug_assert_eq!(freed, Some(slot), "undo out of order");
                self.insert_between(slot, prev, next);
                self.set_slot(page, slot);
            }
            TlbOp::LookupAbsent => {
                self.misses -= 1;
            }
            TlbOp::FillEvict {
                page,
                victim,
                victim_generation,
                slot,
                next,
            } => {
                self.clear_slot(page);
                self.unlink(slot);
                let s = &mut self.slots[slot as usize];
                s.page = victim;
                s.generation = victim_generation;
                // The victim sat at the LRU end (prev = NIL).
                self.insert_between(slot, NIL, next);
                self.set_slot(victim, slot);
            }
            TlbOp::FillFree { page, slot } => {
                self.clear_slot(page);
                self.unlink(slot);
                self.free.push(slot);
            }
            TlbOp::FillGrow { page } => {
                self.clear_slot(page);
                let slot = (self.slots.len() - 1) as u32;
                self.unlink(slot);
                self.slots.pop();
            }
            TlbOp::HugeHit => {
                self.hits -= 1;
            }
            TlbOp::HugeStale { lp, stamp } => {
                self.huge.insert(lp, stamp);
            }
            TlbOp::HugeAbsent => {}
            TlbOp::FillHuge { lp, prev } => match prev {
                Some(stamp) => {
                    self.huge.insert(lp, stamp);
                }
                None => {
                    self.huge.remove(&lp);
                }
            },
        }
    }

    /// Current number of cached huge-page translations (stale entries
    /// included until a lookup reclaims them).
    pub fn huge_len(&self) -> usize {
        self.huge.len()
    }

    /// Current number of cached translations (stale-but-unreclaimed
    /// entries included, until a lookup or fill recycles them).
    pub fn len(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// `true` if no translations are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lifetime (hit, miss) counts. The counters survive
    /// [`invalidate`](Self::invalidate) and generation bumps: they
    /// accumulate over every lookup the TLB ever served, regardless of
    /// how entries were later removed.
    pub fn hit_miss(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Serializes the TLB for a checkpoint: capacity, the live entries
    /// in LRU→MRU order with their generation stamps, the lifetime
    /// counters, and the huge-page side table (sorted by large page).
    ///
    /// Slot indices and the free list are *not* recorded — they are
    /// implementation details no lookup can observe. Restore replays
    /// the entries through [`fill_gen`](Self::fill_gen) in recency
    /// order, which reproduces the observable state exactly.
    pub fn save_state(&self, w: &mut uvm_types::codec::ByteWriter) {
        w.put_usize(self.capacity);
        w.put_usize(self.len());
        let mut slot = self.lru;
        while slot != NIL {
            let s = &self.slots[slot as usize];
            w.put_u64(s.page.index());
            w.put_u32(s.generation);
            slot = s.next;
        }
        w.put_u64(self.hits);
        w.put_u64(self.misses);
        let mut huge: Vec<(LargePageId, u64)> = self.huge.iter().map(|(&l, &e)| (l, e)).collect();
        huge.sort_unstable_by_key(|(l, _)| *l);
        w.put_usize(huge.len());
        for (lp, epoch) in huge {
            w.put_u64(lp.index());
            w.put_u64(epoch);
        }
    }

    /// Rebuilds a TLB from a [`save_state`](Self::save_state) image.
    /// Every cached page must lie below `page_bound` (the restored
    /// GMMU's `Allocations::page_bound`): the slot table grows to the
    /// highest page filled, so an image naming a page beyond every
    /// allocation is rejected before any table grows.
    pub fn load_state(
        r: &mut uvm_types::codec::ByteReader<'_>,
        page_bound: u64,
    ) -> Result<Self, uvm_types::codec::CodecError> {
        use uvm_types::codec::CodecError;

        let capacity = r.get_usize()?;
        if capacity == 0 || capacity > Self::MAX_CAPACITY {
            return Err(CodecError::BadTag {
                what: "tlb capacity",
                value: capacity as u64,
            });
        }
        let mut tlb = Tlb::new(capacity);
        let n = r.get_usize()?;
        if n > capacity {
            return Err(CodecError::BadTag {
                what: "tlb entry count",
                value: n as u64,
            });
        }
        for _ in 0..n {
            let page = r.get_u64()?;
            if page >= page_bound {
                return Err(CodecError::BadTag {
                    what: "tlb page beyond every allocation",
                    value: page,
                });
            }
            let generation = r.get_u32()?;
            tlb.fill_gen(PageId::new(page), generation);
        }
        tlb.hits = r.get_u64()?;
        tlb.misses = r.get_u64()?;
        let n = r.get_usize()?;
        for _ in 0..n {
            let lp = LargePageId::new(r.get_u64()?);
            let epoch = r.get_u64()?;
            tlb.huge.insert(lp, epoch);
        }
        Ok(tlb)
    }

    /// Iterates the cached 4 KB translations in LRU→MRU order as
    /// `(page, generation)` — the auditor's view of what each SM still
    /// holds.
    pub fn iter_entries(&self) -> impl Iterator<Item = (PageId, u32)> + '_ {
        let mut slot = self.lru;
        std::iter::from_fn(move || {
            if slot == NIL {
                return None;
            }
            let s = &self.slots[slot as usize];
            slot = s.next;
            Some((s.page, s.generation))
        })
    }

    /// Iterates the cached huge-page translations (arbitrary order) as
    /// `(large page, epoch stamp)`.
    pub fn iter_huge(&self) -> impl Iterator<Item = (LargePageId, u64)> + '_ {
        self.huge.iter().map(|(&l, &e)| (l, e))
    }

    /// The slot caching `page`, if any.
    #[inline]
    fn slot_of(&self, page: PageId) -> Option<u32> {
        match self.index.get(page.index() as usize) {
            Some(&slot) if slot != NO_SLOT => Some(u32::from(slot)),
            _ => None,
        }
    }

    /// Points `page` at `slot`, growing the slot table to cover it.
    fn set_slot(&mut self, page: PageId, slot: u32) {
        let i = page.index() as usize;
        if i >= self.index.len() {
            self.index.resize(i + 1, NO_SLOT);
        }
        // Slot ids stay below `capacity <= MAX_CAPACITY`, so they fit.
        self.index[i] = slot as u16;
    }

    /// Unindexes a cached `page`.
    fn clear_slot(&mut self, page: PageId) {
        self.index[page.index() as usize] = NO_SLOT;
    }

    /// Inserts a page known to be absent, evicting the LRU entry when
    /// at capacity.
    fn insert_new(&mut self, page: PageId, generation: u32) -> Option<PageId> {
        let (slot, victim) = if self.len() == self.capacity {
            let slot = self.lru;
            let victim = self.slots[slot as usize].page;
            self.clear_slot(victim);
            self.unlink(slot);
            (slot, Some(victim))
        } else if let Some(slot) = self.free.pop() {
            (slot, None)
        } else {
            self.slots.push(Slot {
                page,
                generation,
                prev: NIL,
                next: NIL,
            });
            ((self.slots.len() - 1) as u32, None)
        };
        let s = &mut self.slots[slot as usize];
        s.page = page;
        s.generation = generation;
        self.push_mru(slot);
        self.set_slot(page, slot);
        victim
    }

    /// Moves `slot` to the MRU end of the recency list.
    fn touch(&mut self, slot: u32) {
        if self.mru == slot {
            return;
        }
        self.unlink(slot);
        self.push_mru(slot);
    }

    /// Detaches `slot` from the recency list.
    fn unlink(&mut self, slot: u32) {
        let Slot { prev, next, .. } = self.slots[slot as usize];
        if prev == NIL {
            self.lru = next;
        } else {
            self.slots[prev as usize].next = next;
        }
        if next == NIL {
            self.mru = prev;
        } else {
            self.slots[next as usize].prev = prev;
        }
    }

    /// Re-links a detached `slot` between `prev` and `next` (either
    /// may be `NIL` for the LRU/MRU end) — the undo counterpart of
    /// [`unlink`](Self::unlink).
    fn insert_between(&mut self, slot: u32, prev: u32, next: u32) {
        self.slots[slot as usize].prev = prev;
        self.slots[slot as usize].next = next;
        if prev == NIL {
            self.lru = slot;
        } else {
            self.slots[prev as usize].next = slot;
        }
        if next == NIL {
            self.mru = slot;
        } else {
            self.slots[next as usize].prev = slot;
        }
    }

    /// Appends a detached `slot` at the MRU end.
    fn push_mru(&mut self, slot: u32) {
        self.slots[slot as usize].prev = self.mru;
        self.slots[slot as usize].next = NIL;
        if self.mru == NIL {
            self.lru = slot;
        } else {
            self.slots[self.mru as usize].next = slot;
        }
        self.mru = slot;
    }
}

/// The previous `VecDeque`-backed TLB: O(capacity) on every operation,
/// kept as the executable specification the O(1) [`Tlb`] is
/// differential-tested (and benchmarked) against.
#[derive(Clone, Debug)]
pub struct ReferenceTlb {
    /// Entries in LRU order: front = least recently used.
    entries: std::collections::VecDeque<PageId>,
    capacity: usize,
    hits: u64,
    misses: u64,
}

impl ReferenceTlb {
    /// Creates an empty reference TLB holding at most `capacity`
    /// translations.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "TLB capacity must be non-zero");
        ReferenceTlb {
            entries: std::collections::VecDeque::with_capacity(capacity),
            capacity,
            hits: 0,
            misses: 0,
        }
    }

    /// Looks up `page`, updating recency on a hit.
    pub fn lookup(&mut self, page: PageId) -> TlbLookup {
        if let Some(pos) = self.entries.iter().position(|&p| p == page) {
            let hit = self.entries.remove(pos).expect("position exists");
            self.entries.push_back(hit);
            self.hits += 1;
            TlbLookup::Hit
        } else {
            self.misses += 1;
            TlbLookup::Miss
        }
    }

    /// Installs a translation for `page`, evicting the LRU entry if
    /// full; returns the evicted page, if any.
    pub fn fill(&mut self, page: PageId) -> Option<PageId> {
        let mut victim = None;
        if let Some(pos) = self.entries.iter().position(|&p| p == page) {
            self.entries.remove(pos);
        } else if self.entries.len() == self.capacity {
            victim = self.entries.pop_front();
        }
        self.entries.push_back(page);
        victim
    }

    /// Removes the translation for `page` if present, returning whether
    /// an entry was removed.
    pub fn invalidate(&mut self, page: PageId) -> bool {
        if let Some(pos) = self.entries.iter().position(|&p| p == page) {
            self.entries.remove(pos);
            true
        } else {
            false
        }
    }

    /// Current number of cached translations.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if no translations are cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Lifetime (hit, miss) counts.
    pub fn hit_miss(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_then_fill_then_hit() {
        let mut tlb = Tlb::new(4);
        assert_eq!(tlb.lookup(PageId::new(9)), TlbLookup::Miss);
        tlb.fill(PageId::new(9));
        assert_eq!(tlb.lookup(PageId::new(9)), TlbLookup::Hit);
        assert_eq!(tlb.hit_miss(), (1, 1));
    }

    #[test]
    fn lru_eviction_order() {
        let mut tlb = Tlb::new(2);
        tlb.fill(PageId::new(1));
        tlb.fill(PageId::new(2));
        // Touch 1 so 2 becomes LRU.
        assert_eq!(tlb.lookup(PageId::new(1)), TlbLookup::Hit);
        tlb.fill(PageId::new(3)); // evicts 2
        assert_eq!(tlb.lookup(PageId::new(2)), TlbLookup::Miss);
        assert_eq!(tlb.lookup(PageId::new(1)), TlbLookup::Hit);
        assert_eq!(tlb.lookup(PageId::new(3)), TlbLookup::Hit);
    }

    #[test]
    fn refill_refreshes_instead_of_duplicating() {
        let mut tlb = Tlb::new(2);
        tlb.fill(PageId::new(1));
        tlb.fill(PageId::new(1));
        assert_eq!(tlb.len(), 1);
        tlb.fill(PageId::new(2));
        tlb.fill(PageId::new(1)); // refresh, not insert
        tlb.fill(PageId::new(3)); // evicts 2 (LRU), not 1
        assert_eq!(tlb.lookup(PageId::new(1)), TlbLookup::Hit);
        assert_eq!(tlb.lookup(PageId::new(2)), TlbLookup::Miss);
    }

    #[test]
    fn invalidate_removes_entry() {
        let mut tlb = Tlb::new(4);
        tlb.fill(PageId::new(5));
        assert!(tlb.invalidate(PageId::new(5)));
        assert_eq!(tlb.lookup(PageId::new(5)), TlbLookup::Miss);
        assert!(tlb.is_empty());
        // Invalidating an absent page is a no-op.
        assert!(!tlb.invalidate(PageId::new(6)));
    }

    #[test]
    fn invalidated_slot_frees_capacity() {
        let mut tlb = Tlb::new(2);
        tlb.fill(PageId::new(1));
        tlb.fill(PageId::new(2));
        tlb.invalidate(PageId::new(1));
        // The freed slot means this fill must NOT evict page 2.
        tlb.fill(PageId::new(3));
        assert_eq!(tlb.lookup(PageId::new(2)), TlbLookup::Hit);
        assert_eq!(tlb.lookup(PageId::new(3)), TlbLookup::Hit);
    }

    #[test]
    fn stale_generation_is_never_a_hit() {
        let mut tlb = Tlb::new(4);
        tlb.fill_gen(PageId::new(7), 0);
        assert_eq!(tlb.lookup_gen(PageId::new(7), 0), TlbLookup::Hit);
        // The page's generation moves on (a shootdown bump): the stale
        // stamp misses and the slot is reclaimed.
        assert_eq!(tlb.lookup_gen(PageId::new(7), 1), TlbLookup::Miss);
        assert!(tlb.is_empty());
        // Refilled at the new generation, it hits again.
        tlb.fill_after_miss(PageId::new(7), 1);
        assert_eq!(tlb.lookup_gen(PageId::new(7), 1), TlbLookup::Hit);
    }

    #[test]
    fn fill_after_miss_reports_victim() {
        let mut tlb = Tlb::new(2);
        assert_eq!(tlb.fill_after_miss(PageId::new(1), 0), None);
        assert_eq!(tlb.fill_after_miss(PageId::new(2), 0), None);
        assert_eq!(tlb.fill_after_miss(PageId::new(3), 0), Some(PageId::new(1)));
        assert_eq!(tlb.lookup(PageId::new(1)), TlbLookup::Miss);
    }

    #[test]
    fn counters_survive_invalidation() {
        let mut tlb = Tlb::new(4);
        tlb.fill(PageId::new(1));
        tlb.lookup(PageId::new(1));
        tlb.invalidate(PageId::new(1));
        assert_eq!(tlb.hit_miss(), (1, 0), "invalidate keeps counters");
        tlb.lookup(PageId::new(1));
        assert_eq!(tlb.hit_miss(), (1, 1));
    }

    #[test]
    fn reference_tlb_matches_basic_flow() {
        let mut tlb = ReferenceTlb::new(2);
        assert_eq!(tlb.lookup(PageId::new(1)), TlbLookup::Miss);
        assert_eq!(tlb.fill(PageId::new(1)), None);
        assert_eq!(tlb.fill(PageId::new(2)), None);
        assert_eq!(tlb.lookup(PageId::new(1)), TlbLookup::Hit);
        assert_eq!(tlb.fill(PageId::new(3)), Some(PageId::new(2)));
        assert!(tlb.invalidate(PageId::new(3)));
        assert_eq!(tlb.len(), 1);
        assert_eq!(tlb.hit_miss(), (1, 1));
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_capacity_rejected() {
        let _ = Tlb::new(0);
    }

    #[test]
    fn huge_entries_hit_until_epoch_moves() {
        let mut tlb = Tlb::new(2);
        let lp = LargePageId::new(3);
        assert!(!tlb.lookup_huge(lp, 1));
        tlb.fill_huge(lp, 1);
        assert!(tlb.lookup_huge(lp, 1));
        assert_eq!(tlb.huge_len(), 1);
        // Splinter: the GMMU bumps the epoch; the stale entry never
        // hits and is reclaimed lazily without counting a miss.
        let (hits, misses) = tlb.hit_miss();
        assert!(!tlb.lookup_huge(lp, 2));
        assert_eq!(tlb.huge_len(), 0);
        assert_eq!(tlb.hit_miss(), (hits, misses));
        // Re-coalesce at the new epoch.
        tlb.fill_huge(lp, 3);
        assert!(tlb.lookup_huge(lp, 3));
    }

    /// Serialized bytes plus counters: everything `save_state` pins.
    fn observe(tlb: &Tlb) -> Vec<u8> {
        let mut w = uvm_types::codec::ByteWriter::new();
        tlb.save_state(&mut w);
        w.into_bytes()
    }

    /// Differential undo test: run a random mix of logged operations
    /// (lookups across generations, small and huge fills) against a
    /// TLB with history, undo them in reverse, and require the state
    /// to be *literally* restored — same serialized bytes, and same
    /// bytes again after a further shared op sequence as a pristine
    /// clone (which checks unobservable slot/free-list layout too,
    /// since future evictions depend on it).
    #[test]
    fn logged_ops_undo_to_identical_state() {
        use uvm_types::rng::{Rng, SmallRng};
        let mut rng = SmallRng::seed_from_u64(0x7e5bca11);
        let mut tlb = Tlb::new(8);
        // Build up history: fills, hits, shootdown-style generation
        // bumps, huge entries, invalidations.
        let mut generation = [0u32; 32];
        for step in 0u64..200 {
            let page = PageId::new(rng.next_below(32));
            let g = generation[page.index() as usize];
            match rng.next_below(5) {
                0 => {
                    if tlb.lookup_gen(page, g) == TlbLookup::Miss {
                        tlb.fill_after_miss(page, g);
                    }
                }
                1 => {
                    let _ = tlb.lookup_gen(page, g);
                }
                2 => {
                    generation[page.index() as usize] += 1;
                    tlb.invalidate(page);
                }
                3 => {
                    tlb.fill_huge(LargePageId::new(rng.next_below(4)), step / 50);
                }
                _ => {
                    let _ = tlb.lookup_huge(LargePageId::new(rng.next_below(4)), step / 50);
                }
            }
        }
        let pristine = tlb.clone();
        let before = observe(&tlb);

        // Speculative phase: logged ops only.
        let mut ops = Vec::new();
        for step in 0u64..300 {
            let page = PageId::new(rng.next_below(32));
            let g = generation[page.index() as usize];
            match rng.next_below(4) {
                0 | 1 => {
                    let (res, op) = tlb.lookup_gen_logged(page, g);
                    ops.push(op);
                    if res == TlbLookup::Miss {
                        let (_, op) = tlb.fill_after_miss_logged(page, g);
                        ops.push(op);
                    }
                }
                2 => {
                    let (_, op) =
                        tlb.lookup_huge_logged(LargePageId::new(rng.next_below(4)), step / 40);
                    ops.push(op);
                }
                _ => {
                    ops.push(tlb.fill_huge_logged(LargePageId::new(rng.next_below(4)), step / 40));
                }
            }
        }
        assert_ne!(observe(&tlb), before, "ops should have moved state");

        // Rollback.
        for op in ops.into_iter().rev() {
            tlb.undo(op);
        }
        assert_eq!(observe(&tlb), before, "undo must restore state");

        // Literal restoration: identical future behavior, including
        // eviction choices that hinge on slot/free-list internals.
        let mut undone = tlb;
        let mut fresh = pristine;
        for _ in 0..200 {
            let page = PageId::new(rng.next_below(32));
            let g = generation[page.index() as usize];
            if undone.lookup_gen(page, g) == TlbLookup::Miss {
                let a = undone.fill_after_miss(page, g);
                let b = match fresh.lookup_gen(page, g) {
                    TlbLookup::Miss => fresh.fill_after_miss(page, g),
                    TlbLookup::Hit => panic!("divergent lookup result"),
                };
                assert_eq!(a, b, "divergent eviction victim");
            } else {
                assert_eq!(fresh.lookup_gen(page, g), TlbLookup::Hit);
            }
        }
        assert_eq!(observe(&undone), observe(&fresh));
    }

    #[test]
    fn huge_entries_do_not_contend_with_small_slots() {
        let mut tlb = Tlb::new(1);
        tlb.fill(PageId::new(9));
        tlb.fill_huge(LargePageId::new(0), 1);
        assert_eq!(tlb.lookup(PageId::new(9)), TlbLookup::Hit);
        assert!(tlb.lookup_huge(LargePageId::new(0), 1));
        assert!(tlb.invalidate_huge(LargePageId::new(0)));
        assert!(!tlb.lookup_huge(LargePageId::new(0), 1));
    }

    #[test]
    fn load_state_bounds_pages_and_capacity() {
        use uvm_types::codec::{ByteReader, ByteWriter, CodecError};
        let mut tlb = Tlb::new(4);
        tlb.fill(PageId::new(3));
        tlb.fill(PageId::new(700));
        let image = observe(&tlb);
        // Within the bound: restores to identical bytes.
        let restored = Tlb::load_state(&mut ByteReader::new(&image), 701).unwrap();
        assert_eq!(observe(&restored), image);
        // A page at or past the bound is rejected before the slot
        // table grows to it.
        let err = Tlb::load_state(&mut ByteReader::new(&image), 700).unwrap_err();
        assert!(
            matches!(err, CodecError::BadTag { value: 700, .. }),
            "{err}"
        );
        // A capacity the u16 slot table cannot index is rejected.
        let mut w = ByteWriter::new();
        w.put_usize(Tlb::MAX_CAPACITY + 1);
        let err = Tlb::load_state(&mut ByteReader::new(&w.into_bytes()), 1).unwrap_err();
        assert!(matches!(err, CodecError::BadTag { .. }), "{err}");
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn capacity_beyond_u16_slot_ids_rejected() {
        let _ = Tlb::new(Tlb::MAX_CAPACITY + 1);
    }
}
