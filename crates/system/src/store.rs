//! The interned, shared-prefix trace store.
//!
//! The refinement loop of the paper (Section III-B) splices every valid
//! counterexample onto the shortest matching prefix of *every* existing
//! trace, so the trace set grows super-linearly in the iteration count when
//! a benchmark keeps producing counterexamples. Storing each trace as its
//! own `Vec<Valuation>` (as [`TraceSet`](crate::TraceSet) does) then pays
//! three super-linear costs per iteration: cloning whole observation
//! vectors for every splice, scanning the full set for duplicates on every
//! insert, and re-processing shared prefixes in every downstream consumer.
//!
//! [`TraceStore`] removes all three:
//!
//! * every distinct [`Valuation`] is **interned** once and addressed by a
//!   compact [`ObsId`], so equality is an integer comparison and consumers
//!   can memoise per-observation work (predicate evaluation, letter
//!   lookup) by id;
//! * traces are stored as paths in a **shared-prefix DAG** of
//!   [segments](SegmentId): two traces with a common prefix share the
//!   segment chain of that prefix, so a splice records `(prefix segment,
//!   from, to)` in O(1) instead of cloning the prefix;
//! * a trace is just a *marked* segment, so structural duplicate detection
//!   is O(1) segment identity instead of an O(|T|·len) scan.
//!
//! Determinism: traces are enumerated in insertion order, observation ids
//! are assigned in interning order, and no iteration order ever depends on
//! hashing — the store is a drop-in replacement for `TraceSet` that
//! produces byte-identical learner input (pinned by the differential tests
//! in `amle-core`).

use crate::trace::{Trace, TraceSet};
use amle_expr::Valuation;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Identifier of an interned observation (a distinct [`Valuation`]).
///
/// Ids are dense indices assigned in interning order, so consumers can
/// memoise per-observation results in a plain `Vec` indexed by
/// [`ObsId::index`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ObsId(u32);

impl ObsId {
    /// The dense index of the observation.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Identifier of a stored trace, dense in insertion order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TraceId(u32);

impl TraceId {
    /// The dense insertion-order index of the trace.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Handle to a segment of the shared-prefix DAG: a node whose path from the
/// root spells a (possibly empty) observation sequence.
///
/// Segments are created by [`TraceStore::insert`] and
/// [`TraceStore::splice`], and located by [`TraceStore::prefix`]. Two equal
/// observation sequences always resolve to the *same* segment, which is
/// what makes duplicate detection O(1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SegmentId(u32);

/// One node of the shared-prefix DAG.
#[derive(Debug, Clone)]
struct Segment {
    /// Parent segment; the root points at itself.
    parent: u32,
    /// The observation this segment appends to its parent's sequence
    /// (meaningless for the root).
    obs: u32,
    /// Length of the observation sequence spelled by this segment.
    depth: u32,
    /// Child segments, keyed by the appended observation. Kept as a sorted
    /// vector: branching factors are small and binary search keeps lookups
    /// deterministic and allocation-light.
    children: Vec<(u32, u32)>,
    /// The trace id if this segment's sequence has been inserted as a trace.
    trace: Option<u32>,
    /// The id of the first trace whose path runs through this segment.
    /// Traces only ever append, so it is fixed when the segment is created
    /// and never decreases along the segment vector.
    first_trace: u32,
}

/// Aggregate statistics of a [`TraceStore`], surfaced in run reports and the
/// benchmark tables.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceStoreStats {
    /// Number of stored traces.
    pub traces: usize,
    /// Number of distinct interned observations.
    pub unique_observations: usize,
    /// Number of segments in the shared-prefix DAG (excluding the root);
    /// equivalently, the number of distinct non-empty prefixes stored.
    pub segments: usize,
    /// Total observation count summed over all traces — what a flat
    /// `Vec<Trace>` representation would store.
    pub stored_observations: u64,
    /// Observations that the DAG shares instead of duplicating:
    /// `stored_observations - segments`.
    pub shared_observations: u64,
    /// Estimated heap bytes saved versus the flat `Vec<Trace>`
    /// representation (interning plus prefix sharing, minus the DAG's own
    /// bookkeeping).
    pub approx_bytes_saved: u64,
}

/// Process-unique store identities, used by incremental consumers (the
/// learners' word caches) to distinguish "the same store, grown" from "a
/// different store that happens to have the same length".
static NEXT_STORE_ID: AtomicU64 = AtomicU64::new(1);

/// A deduplicating trace container that interns observations and shares
/// trace prefixes (see the module-level documentation above).
///
/// # Example
///
/// Splicing a counterexample onto a stored trace shares the prefix segments
/// with the parent trace, and structurally identical traces dedupe to one
/// entry:
///
/// ```
/// use amle_expr::{Sort, Valuation, Value, VarId, VarSet};
/// use amle_system::TraceStore;
///
/// let mut vars = VarSet::new();
/// let x = vars.declare("x", Sort::int(4))?;
/// let obs = |v: i64| {
///     let mut o = Valuation::zeroed(&vars);
///     o.set(x, Value::Int(v));
///     o
/// };
///
/// let mut store = TraceStore::new();
/// let t = store.insert(&[obs(1), obs(2), obs(3)]).expect("new trace");
///
/// // Splice `4, 5` onto the length-2 prefix `1, 2` of the stored trace.
/// let prefix = store.prefix(t, 2);
/// let (four, five) = (store.intern(&obs(4)), store.intern(&obs(5)));
/// let spliced = store.splice(prefix, four, five).expect("new trace");
/// assert_eq!(
///     store.materialize(spliced).observations(),
///     &[obs(1), obs(2), obs(4), obs(5)]
/// );
///
/// // The same splice again is a structural duplicate: O(1), no new trace.
/// assert_eq!(store.splice(prefix, four, five), None);
///
/// // Both traces share the `1, 2` prefix segments, and the five distinct
/// // observations are interned once each.
/// let stats = store.stats();
/// assert_eq!(stats.traces, 2);
/// assert_eq!(stats.unique_observations, 5);
/// assert_eq!(stats.stored_observations, 7); // 3 + 4 as a flat Vec<Trace>
/// assert_eq!(stats.segments, 5); // 1,2,3 plus 4,5 under the shared prefix
/// # Ok::<(), amle_expr::SortError>(())
/// ```
#[derive(Debug)]
pub struct TraceStore {
    id: u64,
    observations: Vec<Valuation>,
    interner: HashMap<Valuation, u32>,
    segments: Vec<Segment>,
    /// Segment of each trace, in insertion order.
    traces: Vec<u32>,
    stored_observations: u64,
}

impl Default for TraceStore {
    fn default() -> Self {
        TraceStore::new()
    }
}

/// A clone mints a **fresh** [`TraceStore::store_id`]: a clone that diverges
/// from the original must not look like an append-only growth of it to
/// incremental consumers keyed on the id.
impl Clone for TraceStore {
    fn clone(&self) -> Self {
        TraceStore {
            id: NEXT_STORE_ID.fetch_add(1, Ordering::Relaxed),
            observations: self.observations.clone(),
            interner: self.interner.clone(),
            segments: self.segments.clone(),
            traces: self.traces.clone(),
            stored_observations: self.stored_observations,
        }
    }
}

impl TraceStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        TraceStore {
            id: NEXT_STORE_ID.fetch_add(1, Ordering::Relaxed),
            observations: Vec::new(),
            interner: HashMap::new(),
            segments: vec![Segment {
                parent: 0,
                obs: 0,
                depth: 0,
                children: Vec::new(),
                trace: None,
                first_trace: 0,
            }],
            traces: Vec::new(),
            stored_observations: 0,
        }
    }

    /// Builds a store containing the traces of `set`, in order.
    pub fn from_trace_set(set: &TraceSet) -> Self {
        let mut store = TraceStore::new();
        for trace in set.iter() {
            store.insert(trace.observations());
        }
        store
    }

    /// Materialises every stored trace into a flat [`TraceSet`], in
    /// insertion order. Used by non-incremental learners and by the
    /// differential tests that pin store/flat equivalence.
    pub fn to_trace_set(&self) -> TraceSet {
        self.traces().map(|t| self.materialize(t)).collect()
    }

    /// A process-unique identity for this store instance. Incremental
    /// consumers cache it to detect that a later call refers to the same
    /// (append-only grown) store rather than a fresh one.
    pub fn store_id(&self) -> u64 {
        self.id
    }

    /// Number of stored traces.
    pub fn len(&self) -> usize {
        self.traces.len()
    }

    /// Returns `true` when no traces are stored.
    pub fn is_empty(&self) -> bool {
        self.traces.is_empty()
    }

    /// Number of distinct interned observations.
    pub fn num_observations(&self) -> usize {
        self.observations.len()
    }

    /// Number of segments in the shared-prefix DAG, excluding the root.
    pub fn num_segments(&self) -> usize {
        self.segments.len() - 1
    }

    /// The interned valuation behind an observation id.
    ///
    /// # Panics
    ///
    /// Panics if `obs` does not belong to this store.
    pub fn valuation(&self, obs: ObsId) -> &Valuation {
        &self.observations[obs.index()]
    }

    /// The stored traces, in insertion order.
    pub fn traces(&self) -> impl Iterator<Item = TraceId> {
        (0..self.traces.len() as u32).map(TraceId)
    }

    /// Length (number of observations) of a stored trace.
    pub fn trace_len(&self, trace: TraceId) -> usize {
        self.segments[self.traces[trace.index()] as usize].depth as usize
    }

    /// Writes the observation ids of `trace` into `out` (cleared first), in
    /// trace order. Using a caller-provided buffer keeps the per-trace scans
    /// of the splicing loop allocation-free.
    pub fn obs_ids_into(&self, trace: TraceId, out: &mut Vec<ObsId>) {
        out.clear();
        let mut segment = self.traces[trace.index()] as usize;
        while self.segments[segment].depth > 0 {
            out.push(ObsId(self.segments[segment].obs));
            segment = self.segments[segment].parent as usize;
        }
        out.reverse();
    }

    /// The observation ids of a stored trace, in order.
    pub fn obs_ids(&self, trace: TraceId) -> Vec<ObsId> {
        let mut out = Vec::new();
        self.obs_ids_into(trace, &mut out);
        out
    }

    /// Materialises one stored trace as a flat [`Trace`].
    pub fn materialize(&self, trace: TraceId) -> Trace {
        self.obs_ids(trace)
            .into_iter()
            .map(|o| self.valuation(o).clone())
            .collect()
    }

    /// Interns one valuation, returning its id, so a caller that splices the
    /// same transition onto many prefixes hashes it once.
    ///
    /// The learners mine every interned observation as if it occurred in a
    /// stored trace, so a caller must store a trace through each id it
    /// interns (with [`splice`](Self::splice)) before the store is read
    /// again.
    pub fn intern(&mut self, valuation: &Valuation) -> ObsId {
        if let Some(id) = self.interner.get(valuation) {
            return ObsId(*id);
        }
        let id = self.observations.len() as u32;
        self.observations.push(valuation.clone());
        self.interner.insert(valuation.clone(), id);
        ObsId(id)
    }

    /// Descends from `segment` along `obs`, creating the child if needed.
    fn child(&mut self, segment: u32, obs: u32) -> u32 {
        let children = &self.segments[segment as usize].children;
        match children.binary_search_by_key(&obs, |(o, _)| *o) {
            Ok(position) => self.segments[segment as usize].children[position].1,
            Err(position) => {
                let child = self.segments.len() as u32;
                let depth = self.segments[segment as usize].depth + 1;
                // Every segment is created on the path of the trace that
                // `mark` is about to number `traces.len()`.
                self.segments.push(Segment {
                    parent: segment,
                    obs,
                    depth,
                    children: Vec::new(),
                    trace: None,
                    first_trace: self.traces.len() as u32,
                });
                self.segments[segment as usize]
                    .children
                    .insert(position, (obs, child));
                child
            }
        }
    }

    /// Marks `segment` as a trace, returning its fresh id, or `None` when the
    /// identical observation sequence is already stored.
    fn mark(&mut self, segment: u32) -> Option<TraceId> {
        if self.segments[segment as usize].trace.is_some() {
            return None;
        }
        let id = self.traces.len() as u32;
        self.segments[segment as usize].trace = Some(id);
        self.traces.push(segment);
        self.stored_observations += u64::from(self.segments[segment as usize].depth);
        Some(TraceId(id))
    }

    /// Inserts a trace given as an observation slice.
    ///
    /// Returns the new trace's id, or `None` when the sequence is empty or
    /// an identical trace is already stored — the same contract as
    /// [`TraceSet::insert`], decided in O(length) instead of O(|T|·length).
    pub fn insert(&mut self, observations: &[Valuation]) -> Option<TraceId> {
        if observations.is_empty() {
            return None;
        }
        let mut segment = 0;
        for valuation in observations {
            let obs = self.intern(valuation).0;
            segment = self.child(segment, obs);
        }
        self.mark(segment)
    }

    /// Inserts a [`Trace`], with the same contract as [`insert`](Self::insert).
    pub fn insert_trace(&mut self, trace: &Trace) -> Option<TraceId> {
        self.insert(trace.observations())
    }

    /// The segment spelling the first `len` observations of `trace`.
    ///
    /// # Panics
    ///
    /// Panics if `len` exceeds the trace's length.
    pub fn prefix(&self, trace: TraceId, len: usize) -> SegmentId {
        let mut segment = self.traces[trace.index()] as usize;
        assert!(
            len <= self.segments[segment].depth as usize,
            "prefix length {len} exceeds trace length {}",
            self.segments[segment].depth
        );
        while self.segments[segment].depth as usize > len {
            segment = self.segments[segment].parent as usize;
        }
        SegmentId(segment as u32)
    }

    /// The empty prefix (the DAG root), onto which a splice degenerates to
    /// the bare counterexample transition.
    pub fn root(&self) -> SegmentId {
        SegmentId(0)
    }

    /// Splices the counterexample transition `from → to`, given as
    /// [interned](Self::intern) ids, onto a shared prefix: stores the trace
    /// `prefix · from · to` (Section III-B of the paper, `T_CE`). O(1): two
    /// child lookups and no hashing of valuations.
    ///
    /// Returns the new trace's id, or `None` when the spliced trace is a
    /// structural duplicate of a stored one.
    pub fn splice(&mut self, prefix: SegmentId, from: ObsId, to: ObsId) -> Option<TraceId> {
        let mid = self.child(prefix.0, from.0);
        let end = self.child(mid, to.0);
        self.mark(end)
    }

    /// Appends to `out` the distinct *first-qualifying prefixes* first
    /// reached by a trace with id `since` or later, ordered by the first
    /// trace that reaches each.
    ///
    /// A trace's first-qualifying prefix is the prefix before its first
    /// observation satisfying `qualifies`; a trace with no such observation
    /// has none. For an assumption predicate these are exactly the splice
    /// points of Section III-B, in the first-occurrence order a scan of
    /// every trace would find them.
    ///
    /// A prefix is reached first by the smallest trace id among its
    /// qualifying child segments' first traces, and that never changes as
    /// the store grows. So a call with `since = len()` after the store grew
    /// appends precisely what a fresh `since = 0` call on the grown store
    /// would list after the earlier result: callers keep a list current by
    /// remembering `len()` as their watermark.
    ///
    /// Cost: with `since = 0`, one depth-first walk of the shared-prefix
    /// trie that stops at every qualifying segment, so each shared prefix
    /// is resolved once however many traces share it: O(non-qualifying
    /// segments and their children), plus sorting the result. With
    /// `since > 0`, O(length) per newer trace, plus a scan of a prefix's
    /// children when a newer trace is the first through its qualifying
    /// segment.
    pub fn qualifying_prefixes(
        &self,
        since: usize,
        mut qualifies: impl FnMut(ObsId) -> bool,
        out: &mut Vec<SegmentId>,
    ) {
        let first_trace = |segment: u32| self.segments[segment as usize].first_trace as usize;
        if since == 0 {
            let mut found = Vec::new();
            let mut stack = vec![0];
            while let Some(segment) = stack.pop() {
                let mut first = usize::MAX;
                for &(obs, child) in &self.segments[segment as usize].children {
                    if qualifies(ObsId(obs)) {
                        first = first.min(first_trace(child));
                    } else {
                        stack.push(child);
                    }
                }
                if first != usize::MAX {
                    found.push((first, segment));
                }
            }
            found.sort_unstable();
            out.extend(found.into_iter().map(|(_, segment)| SegmentId(segment)));
            return;
        }
        let mut path = Vec::new();
        for trace in since..self.traces.len() {
            path.clear();
            let mut segment = self.traces[trace];
            while segment != 0 {
                path.push(segment);
                segment = self.segments[segment as usize].parent;
            }
            let Some(&hit) = path
                .iter()
                .rev()
                .find(|&&s| qualifies(ObsId(self.segments[s as usize].obs)))
            else {
                continue;
            };
            if first_trace(hit) < trace {
                continue; // an earlier trace runs through the same segment
            }
            let prefix = self.segments[hit as usize].parent;
            let reached_earlier = self.segments[prefix as usize]
                .children
                .iter()
                .any(|&(obs, child)| first_trace(child) < trace && qualifies(ObsId(obs)));
            if !reached_earlier {
                out.push(SegmentId(prefix));
            }
        }
    }

    /// Aggregate statistics (see [`TraceStoreStats`]).
    pub fn stats(&self) -> TraceStoreStats {
        let per_observation = self
            .observations
            .first()
            .map(|v| {
                std::mem::size_of::<Valuation>() + v.len() * std::mem::size_of::<amle_expr::Value>()
            })
            .unwrap_or(0) as u64;
        let segments = self.num_segments() as u64;
        // A flat representation clones every stored observation; the store
        // keeps two valuations per unique observation (the dense table plus
        // the interner's key copy) and one segment node per stored prefix
        // element.
        let flat_bytes = self.stored_observations * per_observation;
        let store_bytes = 2 * self.observations.len() as u64 * per_observation
            + segments * std::mem::size_of::<Segment>() as u64;
        TraceStoreStats {
            traces: self.traces.len(),
            unique_observations: self.observations.len(),
            segments: self.num_segments(),
            stored_observations: self.stored_observations,
            shared_observations: self.stored_observations - segments,
            approx_bytes_saved: flat_bytes.saturating_sub(store_bytes),
        }
    }

    /// Iterates the distinct steps `(v_t, v_{t+1})` stored in the DAG from
    /// segment index `watermark` (0-based over segments *including* the
    /// root) onwards, as observation-id pairs.
    ///
    /// Every step of every stored trace corresponds to a segment of depth
    /// ≥ 2 (the pair being the parent's and the segment's observation), and
    /// segments are append-only — so incremental consumers can mine steps
    /// of newly added traces by remembering `1 + num_segments()` as their
    /// next watermark.
    pub fn steps_since(&self, watermark: usize) -> impl Iterator<Item = (ObsId, ObsId)> + '_ {
        // Clamp like `observations_since`: an out-of-range watermark (e.g.
        // one cached against a different store) yields an empty iterator,
        // not a slice panic.
        self.segments[watermark.clamp(1, self.segments.len())..]
            .iter()
            .filter(|s| s.depth >= 2)
            .map(|s| (ObsId(self.segments[s.parent as usize].obs), ObsId(s.obs)))
    }

    /// The distinct interned observations from id `watermark` onwards —
    /// the incremental counterpart of scanning every trace's observations
    /// for distinct values.
    pub fn observations_since(
        &self,
        watermark: usize,
    ) -> impl Iterator<Item = (ObsId, &Valuation)> {
        self.observations[watermark.min(self.observations.len())..]
            .iter()
            .enumerate()
            .map(move |(i, v)| (ObsId((watermark + i) as u32), v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amle_expr::{Sort, Value, VarId, VarSet};

    fn vars() -> (VarSet, VarId) {
        let mut vars = VarSet::new();
        let x = vars.declare("x", Sort::int(8)).unwrap();
        (vars, x)
    }

    fn obs(vars: &VarSet, x: VarId, v: i64) -> Valuation {
        let mut o = Valuation::zeroed(vars);
        o.set(x, Value::Int(v));
        o
    }

    #[test]
    fn insert_interns_and_deduplicates() {
        let (vars, x) = vars();
        let o = |v| obs(&vars, x, v);
        let mut store = TraceStore::new();
        assert!(store.insert(&[]).is_none());
        let a = store.insert(&[o(1), o(2), o(1)]).unwrap();
        assert_eq!(store.trace_len(a), 3);
        // Re-inserting the identical sequence is a duplicate.
        assert!(store.insert(&[o(1), o(2), o(1)]).is_none());
        assert_eq!(store.len(), 1);
        // The repeated `1` interned once.
        assert_eq!(store.num_observations(), 2);
        assert_eq!(store.materialize(a).observations(), &[o(1), o(2), o(1)]);
    }

    #[test]
    fn prefixes_are_shared() {
        let (vars, x) = vars();
        let o = |v| obs(&vars, x, v);
        let mut store = TraceStore::new();
        store.insert(&[o(1), o(2), o(3)]).unwrap();
        store.insert(&[o(1), o(2), o(4)]).unwrap();
        // 1, 12, 123, 124 — the shared prefix contributes its segments once.
        assert_eq!(store.num_segments(), 4);
        assert_eq!(store.stats().stored_observations, 6);
        assert_eq!(store.stats().shared_observations, 2);
    }

    #[test]
    fn splice_matches_flat_construction() {
        let (vars, x) = vars();
        let o = |v| obs(&vars, x, v);
        let mut store = TraceStore::new();
        let t = store.insert(&[o(1), o(2), o(3)]).unwrap();
        let (seven, eight) = (store.intern(&o(7)), store.intern(&o(8)));
        let spliced = store.splice(store.prefix(t, 1), seven, eight).unwrap();
        assert_eq!(
            store.materialize(spliced).observations(),
            &[o(1), o(7), o(8)]
        );
        // Splicing onto the empty prefix yields the bare transition.
        let bare = store.splice(store.root(), seven, eight).unwrap();
        assert_eq!(store.materialize(bare).observations(), &[o(7), o(8)]);
        // Duplicates are detected without cloning anything.
        assert!(store.splice(store.prefix(t, 1), seven, eight).is_none());
    }

    #[test]
    fn equal_content_resolves_to_the_same_segment() {
        let (vars, x) = vars();
        let o = |v| obs(&vars, x, v);
        let mut store = TraceStore::new();
        let a = store.insert(&[o(1), o(2), o(3)]).unwrap();
        let b = store.insert(&[o(1), o(2)]).unwrap();
        // The prefix of `a` at length 2 IS trace `b`'s segment.
        assert_eq!(store.prefix(a, 2), store.prefix(b, 2));
        // Splicing onto it therefore dedupes against extensions of either.
        let nine = store.intern(&o(9));
        let s = store.splice(store.prefix(a, 2), nine, nine).unwrap();
        assert_eq!(
            store.materialize(s).observations(),
            &[o(1), o(2), o(9), o(9)]
        );
        assert!(store.splice(store.prefix(b, 2), nine, nine).is_none());
    }

    #[test]
    fn round_trips_a_trace_set() {
        let (vars, x) = vars();
        let o = |v| obs(&vars, x, v);
        let mut set = TraceSet::new();
        set.insert(Trace::new(vec![o(1), o(2)]));
        set.insert(Trace::new(vec![o(1), o(3), o(4)]));
        set.insert(Trace::new(vec![o(5)]));
        let store = TraceStore::from_trace_set(&set);
        assert_eq!(store.len(), 3);
        assert_eq!(store.to_trace_set(), set);
    }

    #[test]
    fn steps_and_observations_watermarks() {
        let (vars, x) = vars();
        let o = |v| obs(&vars, x, v);
        let mut store = TraceStore::new();
        store.insert(&[o(1), o(2), o(3)]).unwrap();
        let steps: Vec<(i64, i64)> = store
            .steps_since(0)
            .map(|(a, b)| {
                (
                    store.valuation(a).value(x).to_i64(),
                    store.valuation(b).value(x).to_i64(),
                )
            })
            .collect();
        assert_eq!(steps, vec![(1, 2), (2, 3)]);

        let watermark_segments = 1 + store.num_segments();
        let watermark_obs = store.num_observations();
        store.insert(&[o(1), o(2), o(9)]).unwrap();
        let new_steps: Vec<(i64, i64)> = store
            .steps_since(watermark_segments)
            .map(|(a, b)| {
                (
                    store.valuation(a).value(x).to_i64(),
                    store.valuation(b).value(x).to_i64(),
                )
            })
            .collect();
        // Only the step introduced by the new suffix segment is new.
        assert_eq!(new_steps, vec![(2, 9)]);
        let new_obs: Vec<i64> = store
            .observations_since(watermark_obs)
            .map(|(_, v)| v.value(x).to_i64())
            .collect();
        assert_eq!(new_obs, vec![9]);
        // Out-of-range watermarks (e.g. cached against another store) yield
        // empty iterators instead of panicking, for both accessors.
        assert_eq!(store.steps_since(9999).count(), 0);
        assert_eq!(store.observations_since(9999).count(), 0);
    }

    /// The observation values spelled by `segment`, from the root.
    fn spell(store: &TraceStore, x: VarId, segment: SegmentId) -> Vec<i64> {
        let mut values = Vec::new();
        let mut segment = segment.0 as usize;
        while store.segments[segment].depth > 0 {
            let obs = ObsId(store.segments[segment].obs);
            values.push(store.valuation(obs).value(x).to_i64());
            segment = store.segments[segment].parent as usize;
        }
        values.reverse();
        values
    }

    /// The qualifying prefixes first reached from trace `since` on, where an
    /// observation qualifies when its value is one of `hits`.
    fn qualifying(store: &TraceStore, x: VarId, since: usize, hits: &[i64]) -> Vec<Vec<i64>> {
        let mut out = Vec::new();
        let qualifies = |o| hits.contains(&store.valuation(o).value(x).to_i64());
        store.qualifying_prefixes(since, qualifies, &mut out);
        out.into_iter().map(|p| spell(store, x, p)).collect()
    }

    #[test]
    fn qualifying_prefixes_of_a_trace_that_prefixes_another() {
        let (vars, x) = vars();
        let o = |v| obs(&vars, x, v);
        let mut store = TraceStore::new();
        store.insert(&[o(1), o(2)]).unwrap();
        store.insert(&[o(1), o(2), o(3)]).unwrap();
        store.insert(&[o(1), o(5)]).unwrap();
        // Both of the first two traces stop before the 2 at [1].
        assert_eq!(qualifying(&store, x, 0, &[2]), vec![vec![1]]);
        // Only the longer trace reaches a 3: its prefix ends where the
        // shorter trace does.
        assert_eq!(qualifying(&store, x, 0, &[3]), vec![vec![1, 2]]);
        // Ordered by the first trace reaching each prefix: [1, 2] by trace
        // 1 (through the 3), [1] by trace 2 (through the 5).
        assert_eq!(qualifying(&store, x, 0, &[3, 5]), vec![vec![1, 2], vec![1]]);
    }

    #[test]
    fn a_hit_at_the_first_observation_gives_the_root_prefix() {
        let (vars, x) = vars();
        let o = |v| obs(&vars, x, v);
        let mut store = TraceStore::new();
        store.insert(&[o(4), o(1)]).unwrap();
        store.insert(&[o(1), o(4)]).unwrap();
        store.insert(&[o(4), o(2)]).unwrap();
        let mut out = Vec::new();
        let qualifies = |o| store.valuation(o).value(x).to_i64() == 4;
        store.qualifying_prefixes(0, qualifies, &mut out);
        assert_eq!(out, vec![store.root(), store.prefix(TraceId(1), 1)]);
    }

    #[test]
    fn traces_without_a_hit_have_no_qualifying_prefix() {
        let (vars, x) = vars();
        let o = |v| obs(&vars, x, v);
        let mut store = TraceStore::new();
        assert!(qualifying(&store, x, 0, &[1]).is_empty());
        store.insert(&[o(1), o(2), o(3)]).unwrap();
        store.insert(&[o(2), o(2)]).unwrap();
        assert!(qualifying(&store, x, 0, &[9]).is_empty());
        assert!(qualifying(&store, x, 0, &[]).is_empty());
        assert!(qualifying(&store, x, store.len(), &[2]).is_empty());
    }

    #[test]
    fn watermark_extension_returns_only_new_prefixes() {
        let (vars, x) = vars();
        let o = |v| obs(&vars, x, v);
        let hits = [2, 3];
        let mut store = TraceStore::new();
        store.insert(&[o(1), o(2), o(7)]).unwrap();
        store.insert(&[o(5), o(3)]).unwrap();
        let before = qualifying(&store, x, 0, &hits);
        assert_eq!(before, vec![vec![1], vec![5]]);
        let watermark = store.len();

        // Through the existing qualifying segment [1, 2]: nothing new.
        let (one, two, nine) = (
            store.intern(&o(1)),
            store.intern(&o(2)),
            store.intern(&o(9)),
        );
        store.splice(store.root(), one, two).unwrap();
        store.insert(&[o(1), o(2), o(9)]).unwrap();
        // A new qualifying segment [1, 3] under the old prefix [1]: nothing new.
        store.insert(&[o(1), o(3)]).unwrap();
        // Two new prefixes, [6, 6] and [5, 8], plus a repeat of [6, 6].
        store.insert(&[o(6), o(6), o(2)]).unwrap();
        let five_eight = store.insert(&[o(5), o(8), o(9)]).unwrap();
        store
            .splice(store.prefix(five_eight, 2), two, nine)
            .unwrap();
        store.insert(&[o(6), o(6), o(3)]).unwrap();

        let added = qualifying(&store, x, watermark, &hits);
        assert_eq!(added, vec![vec![6, 6], vec![5, 8]]);
        // The extension appends exactly what a full recomputation lists
        // after the earlier result.
        let mut all = before;
        all.extend(added);
        assert_eq!(qualifying(&store, x, 0, &hits), all);
    }

    #[test]
    fn store_ids_are_unique() {
        assert_ne!(TraceStore::new().store_id(), TraceStore::new().store_id());
    }

    #[test]
    fn stats_report_bytes_saved() {
        let (vars, x) = vars();
        let o = |v| obs(&vars, x, v);
        let mut store = TraceStore::new();
        assert_eq!(store.stats().approx_bytes_saved, 0);
        let t = store.insert(&[o(1), o(2), o(3), o(4)]).unwrap();
        let seven = store.intern(&o(7));
        for v in 0..40 {
            let from = store.intern(&o(100 + v));
            store.splice(store.prefix(t, 3), from, seven);
        }
        let stats = store.stats();
        assert_eq!(stats.traces, 41);
        // 4 + 41 * 5 observations stored flat, heavily shared here.
        assert_eq!(stats.stored_observations, 4 + 40 * 5);
        assert!(stats.approx_bytes_saved > 0);
    }
}
