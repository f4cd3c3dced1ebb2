//! Alphabet abstraction: synthesising a finite predicate alphabet from
//! concrete trace data.
//!
//! The symbolic models of the paper (Fig. 2) label transitions with
//! predicates over the observables, such as `inp.temp > T_thresh && s' = On`.
//! To learn such models from concrete valuations, the learner first
//! generalises the observations into a finite set of *letters*, each
//! described by a conjunction of per-variable atomic predicates:
//!
//! * variables with few observed distinct values (booleans, enumerations,
//!   small counters) get equality predicates `x == c`;
//! * numeric variables with many observed values get interval predicates
//!   whose thresholds are mined from the data: a boundary is introduced
//!   wherever neighbouring observations (ordered by the numeric value) lead
//!   to different next values of the discrete variables — the 1-D
//!   decision-boundary rule that recovers the `T_thresh`-style guards of
//!   threshold controllers.
//!
//! The abstraction maps every observation to exactly one letter, so abstract
//! words are well defined and the learned automaton over letters can be
//! translated back into a symbolic NFA whose guards are the letters'
//! predicates.

use amle_expr::{Expr, Sort, Valuation, Value, VarId, VarSet};
use amle_system::{ObsId, TraceSet, TraceStore};
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// Identifier of an abstract letter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LetterId(pub(crate) usize);

impl LetterId {
    /// The dense index of the letter.
    pub fn index(self) -> usize {
        self.0
    }
}

/// Tuning knobs of the alphabet abstraction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AbstractionConfig {
    /// Variables with at most this many observed distinct values are
    /// abstracted by equality predicates; others by mined intervals.
    pub max_distinct_values: usize,
    /// Upper bound on the number of interval thresholds mined per numeric
    /// variable (the most frequently voted boundaries are kept).
    pub max_thresholds: usize,
}

impl Default for AbstractionConfig {
    fn default() -> Self {
        AbstractionConfig {
            max_distinct_values: 12,
            max_thresholds: 8,
        }
    }
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum VarAbstraction {
    /// One cell per observed value; the predicate of cell `i` is `x == values[i]`.
    Exact { values: Vec<i64> },
    /// Cells are the intervals induced by the sorted thresholds:
    /// `(-∞, t0), [t0, t1), …, [t_last, ∞)`.
    Intervals { thresholds: Vec<i64> },
}

/// A finite predicate alphabet synthesised from trace data.
#[derive(Debug, Clone)]
pub struct AlphabetAbstraction {
    vars: VarSet,
    observables: Vec<VarId>,
    per_var: Vec<VarAbstraction>,
    letters: Vec<Vec<usize>>,
    /// The symbolic predicate of each letter, built once when the letter is
    /// registered. Predicates are hash-consed `Expr`s, so letters with equal
    /// guards — within one abstraction or across the rebuilds of successive
    /// iterations — share one interned node, and the repeated
    /// [`AlphabetAbstraction::predicate`] calls of NFA construction are
    /// clone-of-`Arc` cheap.
    predicates: Vec<Expr>,
    index: HashMap<Vec<usize>, LetterId>,
}

impl AlphabetAbstraction {
    /// Builds the abstraction from a trace set.
    ///
    /// Only valuations of the `observables` are considered. Every observation
    /// occurring in `traces` is guaranteed to map to a letter.
    pub fn from_traces(
        vars: &VarSet,
        observables: &[VarId],
        traces: &TraceSet,
        config: AbstractionConfig,
    ) -> Self {
        let observations: Vec<&Valuation> = traces
            .iter()
            .flat_map(|t| t.observations().iter())
            .collect();

        // 1. Observed value sets per observable.
        let mut distinct: Vec<BTreeSet<i64>> = vec![BTreeSet::new(); observables.len()];
        for obs in &observations {
            for (i, id) in observables.iter().enumerate() {
                distinct[i].insert(obs.value(*id).to_i64());
            }
        }

        // 2. Decide per-variable abstraction. Threshold voting is a function
        //    of the *set* of observed steps (see [`mine_thresholds`]), so the
        //    steps are deduplicated up front — and only collected at all
        //    when some observable actually needs interval mining.
        let any_numeric = observables
            .iter()
            .enumerate()
            .any(|(i, id)| !is_discrete(vars.sort(*id), distinct[i].len(), config));
        let steps: BTreeSet<(&Valuation, &Valuation)> = if any_numeric {
            traces.iter().flat_map(|t| t.steps()).collect()
        } else {
            BTreeSet::new()
        };
        let per_var =
            per_var_abstractions(vars, observables, &distinct, steps.iter().copied(), config);

        let mut abstraction = AlphabetAbstraction {
            vars: vars.clone(),
            observables: observables.to_vec(),
            per_var,
            letters: Vec::new(),
            predicates: Vec::new(),
            index: HashMap::new(),
        };

        // 3. Register a letter for every observed cell combination.
        for obs in &observations {
            let cells = abstraction.cells_of(obs);
            abstraction.intern(cells);
        }
        abstraction
    }

    fn intern(&mut self, cells: Vec<usize>) -> LetterId {
        if let Some(id) = self.index.get(&cells) {
            return *id;
        }
        let id = LetterId(self.letters.len());
        let predicate = self.predicate_of_cells(&cells);
        self.letters.push(cells.clone());
        self.predicates.push(predicate);
        self.index.insert(cells, id);
        id
    }

    fn cell_of(&self, var_index: usize, raw: i64) -> Option<usize> {
        match &self.per_var[var_index] {
            VarAbstraction::Exact { values } => values.iter().position(|v| *v == raw),
            VarAbstraction::Intervals { thresholds } => {
                Some(thresholds.iter().filter(|t| raw >= **t).count())
            }
        }
    }

    fn cells_of(&self, obs: &Valuation) -> Vec<usize> {
        self.observables
            .iter()
            .enumerate()
            .map(|(i, id)| {
                self.cell_of(i, obs.value(*id).to_i64())
                    .unwrap_or(usize::MAX)
            })
            .collect()
    }

    /// The number of distinct letters observed when the abstraction was built.
    pub fn num_letters(&self) -> usize {
        self.letters.len()
    }

    /// The observable variables the abstraction ranges over.
    pub fn observables(&self) -> &[VarId] {
        &self.observables
    }

    /// Maps an observation to its letter, or `None` if the observation falls
    /// into a cell combination that never occurred when the abstraction was
    /// built (e.g. a counterexample with a brand-new discrete value).
    pub fn letter_of(&self, obs: &Valuation) -> Option<LetterId> {
        let cells = self.cells_of(obs);
        if cells.contains(&usize::MAX) {
            return None;
        }
        self.index.get(&cells).copied()
    }

    /// Converts a sequence of observations into an abstract word, or `None`
    /// if any observation has no letter.
    ///
    /// # Example
    ///
    /// ```
    /// use amle_expr::{Sort, Valuation, Value, VarSet};
    /// use amle_learner::{AbstractionConfig, AlphabetAbstraction};
    /// use amle_system::{Trace, TraceSet};
    ///
    /// let mut vars = VarSet::new();
    /// let on = vars.declare("on", Sort::Bool)?;
    /// let obs = |b: bool| {
    ///     let mut v = Valuation::zeroed(&vars);
    ///     v.set(on, Value::Bool(b));
    ///     v
    /// };
    /// let mut traces = TraceSet::new();
    /// traces.insert(Trace::new(vec![obs(false), obs(true), obs(false)]));
    ///
    /// let abs = AlphabetAbstraction::from_traces(
    ///     &vars,
    ///     &[on],
    ///     &traces,
    ///     AbstractionConfig::default(),
    /// );
    /// // Two letters (`!on` and `on`); the word mirrors the observations.
    /// let word = abs.word_of(traces.traces()[0].observations()).unwrap();
    /// assert_eq!(word.len(), 3);
    /// assert_eq!(word[0], word[2]);
    /// assert_ne!(word[0], word[1]);
    /// # Ok::<(), amle_expr::SortError>(())
    /// ```
    pub fn word_of(&self, observations: &[Valuation]) -> Option<Vec<LetterId>> {
        observations.iter().map(|o| self.letter_of(o)).collect()
    }

    /// The symbolic predicate characterising a letter: the conjunction of the
    /// per-variable atomic predicates of its cells. Synthesised once when
    /// the letter is registered (see the `predicates` field) and returned as
    /// a cheap clone of the interned expression.
    ///
    /// # Panics
    ///
    /// Panics if the letter id does not belong to this abstraction.
    pub fn predicate(&self, letter: LetterId) -> Expr {
        self.predicates[letter.0].clone()
    }

    fn predicate_of_cells(&self, cells: &[usize]) -> Expr {
        let mut conjuncts = Vec::new();
        for (i, cell) in cells.iter().enumerate() {
            conjuncts.push(self.cell_predicate(i, *cell));
        }
        Expr::and_all(conjuncts)
    }

    fn cell_predicate(&self, var_index: usize, cell: usize) -> Expr {
        let id = self.observables[var_index];
        let sort = self.vars.sort(id).clone();
        let var = Expr::var(id, sort.clone());
        match &self.per_var[var_index] {
            VarAbstraction::Exact { values } => {
                let raw = values[cell];
                match &sort {
                    Sort::Bool => {
                        if raw != 0 {
                            var
                        } else {
                            var.not()
                        }
                    }
                    _ => {
                        let c = Expr::constant(&sort, Value::from_i64(&sort, raw))
                            .expect("observed value fits its sort");
                        var.eq(&c)
                    }
                }
            }
            VarAbstraction::Intervals { thresholds } => {
                if thresholds.is_empty() {
                    return Expr::true_();
                }
                let constant = |t: i64| {
                    Expr::constant(&sort, Value::from_i64(&sort, t))
                        .expect("threshold is an observed value")
                };
                let lower = if cell > 0 {
                    Some(var.ge(&constant(thresholds[cell - 1])))
                } else {
                    None
                };
                let upper = if cell < thresholds.len() {
                    Some(var.lt(&constant(thresholds[cell])))
                } else {
                    None
                };
                match (lower, upper) {
                    (Some(l), Some(u)) => l.and(&u),
                    (Some(l), None) => l,
                    (None, Some(u)) => u,
                    (None, None) => Expr::true_(),
                }
            }
        }
    }

    /// All letters of the abstraction.
    pub fn letters(&self) -> impl Iterator<Item = LetterId> {
        (0..self.letters.len()).map(LetterId)
    }

    /// An abstraction with the given per-variable cell structure and no
    /// letters registered yet (the incremental builder registers them as it
    /// scans traces).
    fn with_per_var(vars: &VarSet, observables: &[VarId], per_var: Vec<VarAbstraction>) -> Self {
        AlphabetAbstraction {
            vars: vars.clone(),
            observables: observables.to_vec(),
            per_var,
            letters: Vec::new(),
            predicates: Vec::new(),
            index: HashMap::new(),
        }
    }
}

/// Outcome of an [`IncrementalAbstraction::update`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbstractionUpdate {
    /// The per-variable cell structure changed (new distinct values or
    /// different mined thresholds), so the alphabet, the letter memo and all
    /// cached words were rebuilt from scratch.
    Rebuilt,
    /// The cell structure is unchanged: only the words of the newly added
    /// traces were converted (letters memoised per interned observation id);
    /// all previously cached words were reused as-is.
    Incremental {
        /// Number of traces whose words were newly converted.
        new_traces: usize,
    },
}

/// Incrementally maintained alphabet abstraction over a growing
/// [`TraceStore`].
///
/// The active-learning loop rebuilds the abstraction every iteration; with a
/// flat trace set that costs a full pass over every observation of every
/// trace. This builder exploits the store's interning and append-only
/// structure instead:
///
/// * distinct-value sets are folded **per interned observation** (each
///   distinct valuation is examined once, ever);
/// * interval thresholds are mined from the store's deduplicated step set
///   (see [`TraceStore::steps_since`]), which is provably vote-equivalent to
///   the per-occurrence scan (see `mine_thresholds`);
/// * letter lookups are memoised **per observation id**, so shared trace
///   prefixes never re-classify an observation;
/// * abstract words are cached per trace: when the cell structure is stable
///   between updates, only words of newly inserted traces are converted.
///
/// The resulting [`AlphabetAbstraction`] and words are byte-identical to the
/// from-scratch [`AlphabetAbstraction::from_traces`] path on the materialised
/// trace set — letters are registered in exactly the same first-occurrence
/// order — which the differential tests pin down.
#[derive(Debug, Clone)]
pub struct IncrementalAbstraction {
    config: AbstractionConfig,
    state: Option<IncState>,
}

#[derive(Debug, Clone)]
struct IncState {
    store_id: u64,
    vars: VarSet,
    observables: Vec<VarId>,
    /// Interned observations already folded into `distinct`.
    obs_seen: usize,
    /// Store segments (1 + segment count) already folded into `steps`.
    seg_watermark: usize,
    /// Traces whose words are cached.
    traces_seen: usize,
    distinct: Vec<BTreeSet<i64>>,
    steps: BTreeSet<(ObsId, ObsId)>,
    abstraction: AlphabetAbstraction,
    built: bool,
    /// Letter of each interned observation, computed at most once per
    /// alphabet rebuild.
    letter_memo: Vec<Option<LetterId>>,
    words: Vec<Vec<LetterId>>,
}

impl IncState {
    fn fresh(vars: &VarSet, observables: &[VarId], store_id: u64) -> Self {
        IncState {
            store_id,
            vars: vars.clone(),
            observables: observables.to_vec(),
            obs_seen: 0,
            seg_watermark: 0,
            traces_seen: 0,
            distinct: vec![BTreeSet::new(); observables.len()],
            steps: BTreeSet::new(),
            abstraction: AlphabetAbstraction::with_per_var(vars, observables, Vec::new()),
            built: false,
            letter_memo: Vec::new(),
            words: Vec::new(),
        }
    }
}

impl IncrementalAbstraction {
    /// Creates a builder with the given configuration.
    pub fn new(config: AbstractionConfig) -> Self {
        IncrementalAbstraction {
            config,
            state: None,
        }
    }

    /// The configuration the builder was created with.
    pub fn config(&self) -> AbstractionConfig {
        self.config
    }

    /// Brings the abstraction up to date with `store`.
    ///
    /// When the call refers to the same store as the previous update (same
    /// [`TraceStore::store_id`], monotonically grown) over the same
    /// variables, only the new observations, steps and traces are processed;
    /// otherwise everything is rebuilt. The returned [`AbstractionUpdate`]
    /// says which of the two happened.
    pub fn update(
        &mut self,
        vars: &VarSet,
        observables: &[VarId],
        store: &TraceStore,
    ) -> AbstractionUpdate {
        let reusable = matches!(
            &self.state,
            Some(s) if s.store_id == store.store_id()
                && s.obs_seen <= store.num_observations()
                && s.traces_seen <= store.len()
                && s.vars == *vars
                && s.observables == observables
        );
        if !reusable {
            self.state = None;
        }
        let mut s = self
            .state
            .take()
            .unwrap_or_else(|| IncState::fresh(vars, observables, store.store_id()));

        // 1. Fold new interned observations into the distinct-value sets.
        for (_, valuation) in store.observations_since(s.obs_seen) {
            for (i, id) in observables.iter().enumerate() {
                s.distinct[i].insert(valuation.value(*id).to_i64());
            }
        }
        s.obs_seen = store.num_observations();

        // 2. Fold new segments into the deduplicated step set — only needed
        //    once some observable requires interval mining. While every
        //    observable is discrete the watermark is deliberately *not*
        //    advanced, so a later discrete→numeric flip (a variable crossing
        //    `max_distinct_values`) folds the whole backlog of segments,
        //    which the append-only store still holds.
        let any_numeric = observables
            .iter()
            .enumerate()
            .any(|(i, id)| !is_discrete(vars.sort(*id), s.distinct[i].len(), self.config));
        if any_numeric {
            s.steps.extend(store.steps_since(s.seg_watermark));
            s.seg_watermark = 1 + store.num_segments();
        }

        // 3. Recompute the per-variable cell structure and decide whether the
        //    existing alphabet is still valid.
        let per_var = per_var_abstractions(
            vars,
            observables,
            &s.distinct,
            s.steps
                .iter()
                .map(|(a, b)| (store.valuation(*a), store.valuation(*b))),
            self.config,
        );
        let incremental = s.built && per_var == s.abstraction.per_var;
        if !incremental {
            s.abstraction = AlphabetAbstraction::with_per_var(vars, observables, per_var);
            s.built = true;
            s.letter_memo.clear();
            s.words.clear();
            s.traces_seen = 0;
        }
        s.letter_memo.resize(store.num_observations(), None);

        // 4. Convert the words of (new) traces, registering letters in
        //    first-occurrence order and memoising them per observation id.
        let start = s.traces_seen;
        let mut buf = Vec::new();
        for trace in store.traces().skip(start) {
            store.obs_ids_into(trace, &mut buf);
            let word = buf
                .iter()
                .map(|obs| match s.letter_memo[obs.index()] {
                    Some(letter) => letter,
                    None => {
                        let cells = s.abstraction.cells_of(store.valuation(*obs));
                        let letter = s.abstraction.intern(cells);
                        s.letter_memo[obs.index()] = Some(letter);
                        letter
                    }
                })
                .collect();
            s.words.push(word);
        }
        let new_traces = store.len() - start;
        s.traces_seen = store.len();
        self.state = Some(s);
        if incremental {
            AbstractionUpdate::Incremental { new_traces }
        } else {
            AbstractionUpdate::Rebuilt
        }
    }

    /// The current abstraction.
    ///
    /// # Panics
    ///
    /// Panics if [`update`](Self::update) has never been called.
    pub fn abstraction(&self) -> &AlphabetAbstraction {
        &self
            .state
            .as_ref()
            .expect("IncrementalAbstraction::update must run before abstraction()")
            .abstraction
    }

    /// The cached abstract words, one per stored trace in insertion order.
    ///
    /// # Panics
    ///
    /// Panics if [`update`](Self::update) has never been called.
    pub fn words(&self) -> &[Vec<LetterId>] {
        &self
            .state
            .as_ref()
            .expect("IncrementalAbstraction::update must run before words()")
            .words
    }
}

/// The discrete-vs-numeric rule: variables whose sort is boolean or an
/// enumeration, or with few observed distinct values, get equality cells;
/// everything else gets mined interval cells.
fn is_discrete(sort: &Sort, distinct_values: usize, config: AbstractionConfig) -> bool {
    sort.is_bool() || sort.is_enum() || distinct_values <= config.max_distinct_values
}

/// Decides the per-variable abstractions from the distinct-value sets and the
/// (deduplicated) step set, the shared core of [`AlphabetAbstraction::from_traces`]
/// and the incremental builder. Callers may pass an empty `steps` iterator
/// when every observable is discrete (the step set is only consumed by
/// interval mining).
fn per_var_abstractions<'a>(
    vars: &VarSet,
    observables: &[VarId],
    distinct: &[BTreeSet<i64>],
    steps: impl Iterator<Item = (&'a Valuation, &'a Valuation)> + Clone,
    config: AbstractionConfig,
) -> Vec<VarAbstraction> {
    let discrete: Vec<bool> = distinct
        .iter()
        .enumerate()
        .map(|(i, set)| is_discrete(vars.sort(observables[i]), set.len(), config))
        .collect();

    let mut per_var = Vec::with_capacity(observables.len());
    for (i, id) in observables.iter().enumerate() {
        if discrete[i] {
            per_var.push(VarAbstraction::Exact {
                values: distinct[i].iter().copied().collect(),
            });
        } else {
            let thresholds = mine_thresholds(
                steps.clone(),
                observables,
                &discrete,
                *id,
                config.max_thresholds,
            );
            per_var.push(VarAbstraction::Intervals { thresholds });
        }
    }
    per_var
}

/// Mines interval thresholds for a numeric variable: a boundary is proposed
/// between two observations whenever their successor observations differ on
/// some discrete observable, and the most frequently proposed boundaries are
/// kept.
///
/// The vote counts are a function of the *set* of `(value, successor class)`
/// samples: duplicated samples sort adjacently, and a window between two
/// identical samples never votes, so exactly one vote is cast per boundary
/// between adjacent distinct samples regardless of multiplicity. The caller
/// may therefore pass the steps deduplicated (as the incremental pipeline
/// does) without changing the mined thresholds.
fn mine_thresholds<'a>(
    steps: impl Iterator<Item = (&'a Valuation, &'a Valuation)>,
    observables: &[VarId],
    discrete: &[bool],
    var: VarId,
    max_thresholds: usize,
) -> Vec<i64> {
    // Collect (value of `var` at time t, class = discrete observables at t+1).
    let samples: BTreeSet<(i64, Vec<i64>)> = steps
        .map(|(current, next)| {
            let class: Vec<i64> = observables
                .iter()
                .enumerate()
                .filter(|(i, _)| discrete[*i])
                .map(|(_, id)| next.value(*id).to_i64())
                .collect();
            (current.value(var).to_i64(), class)
        })
        .collect();

    // Vote for boundaries between adjacent samples with different classes.
    let samples: Vec<(i64, Vec<i64>)> = samples.into_iter().collect();
    let mut votes: BTreeMap<i64, usize> = BTreeMap::new();
    for pair in samples.windows(2) {
        let (a, ca) = &pair[0];
        let (b, cb) = &pair[1];
        if a != b && ca != cb {
            *votes.entry(*b).or_insert(0) += 1;
        }
    }
    let mut boundaries: Vec<(usize, i64)> = votes.into_iter().map(|(t, c)| (c, t)).collect();
    boundaries.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    let mut thresholds: Vec<i64> = boundaries
        .into_iter()
        .take(max_thresholds)
        .map(|(_, t)| t)
        .collect();
    thresholds.sort_unstable();
    thresholds.dedup();
    thresholds
}

#[cfg(test)]
mod tests {
    use super::*;
    use amle_expr::Sort;
    use amle_system::{Trace, TraceSet};

    /// Builds traces of a thermostat: `temp` is a noisy numeric input, `on`
    /// follows `temp > 75` with a one-step delay.
    fn thermostat_traces() -> (VarSet, VarId, VarId, TraceSet) {
        let mut vars = VarSet::new();
        let temp = vars.declare("temp", Sort::int(8)).unwrap();
        let on = vars.declare("on", Sort::Bool).unwrap();
        let mut set = TraceSet::new();
        let temp_seqs: Vec<Vec<i64>> = vec![
            vec![10, 30, 80, 90, 95, 60, 40, 85, 76, 75, 74, 100],
            vec![70, 71, 72, 77, 79, 81, 20, 25, 90, 12, 99, 50],
            vec![5, 95, 7, 93, 11, 89, 13, 87, 17, 83, 19, 81],
        ];
        for seq in temp_seqs {
            let mut obs = Vec::new();
            let mut prev_on = false;
            for t in seq {
                let mut v = Valuation::zeroed(&vars);
                v.set(temp, Value::Int(t));
                v.set(on, Value::Bool(prev_on));
                obs.push(v);
                prev_on = t > 75;
            }
            set.insert(Trace::new(obs));
        }
        (vars, temp, on, set)
    }

    #[test]
    fn discrete_variables_get_equality_cells() {
        let (vars, _, on, traces) = thermostat_traces();
        let abs =
            AlphabetAbstraction::from_traces(&vars, &[on], &traces, AbstractionConfig::default());
        assert_eq!(abs.num_letters(), 2);
        let preds: Vec<String> = abs
            .letters()
            .map(|l| abs.predicate(l).to_string())
            .collect();
        assert!(preds.iter().any(|p| p.contains('!')));
    }

    #[test]
    fn numeric_variable_gets_threshold_near_75() {
        let (vars, temp, on, traces) = thermostat_traces();
        let abs = AlphabetAbstraction::from_traces(
            &vars,
            &[temp, on],
            &traces,
            AbstractionConfig {
                max_distinct_values: 4,
                max_thresholds: 3,
            },
        );
        // The mined thresholds must include a boundary separating <=75 from >75.
        let VarAbstraction::Intervals { thresholds } = &abs.per_var[0] else {
            panic!("temp should be abstracted by intervals");
        };
        assert!(
            thresholds.iter().any(|t| (*t > 75) && (*t <= 81)),
            "expected a boundary just above 75, got {thresholds:?}"
        );
    }

    #[test]
    fn every_observation_has_a_letter_and_predicate_holds() {
        let (vars, temp, on, traces) = thermostat_traces();
        let abs = AlphabetAbstraction::from_traces(
            &vars,
            &[temp, on],
            &traces,
            AbstractionConfig {
                max_distinct_values: 4,
                max_thresholds: 4,
            },
        );
        for trace in traces.iter() {
            for obs in trace.observations() {
                let letter = abs.letter_of(obs).expect("observed valuation has a letter");
                assert!(abs.predicate(letter).eval_bool(obs));
            }
        }
    }

    #[test]
    fn letters_are_mutually_exclusive_on_observed_data() {
        let (vars, temp, on, traces) = thermostat_traces();
        let abs = AlphabetAbstraction::from_traces(
            &vars,
            &[temp, on],
            &traces,
            AbstractionConfig::default(),
        );
        for trace in traces.iter() {
            for obs in trace.observations() {
                let holding: Vec<LetterId> = abs
                    .letters()
                    .filter(|l| abs.predicate(*l).eval_bool(obs))
                    .collect();
                assert_eq!(holding.len(), 1, "exactly one letter predicate must hold");
                assert_eq!(holding[0], abs.letter_of(obs).unwrap());
            }
        }
    }

    #[test]
    fn word_conversion() {
        let (vars, temp, on, traces) = thermostat_traces();
        let abs = AlphabetAbstraction::from_traces(
            &vars,
            &[temp, on],
            &traces,
            AbstractionConfig::default(),
        );
        let trace = &traces.traces()[0];
        let word = abs.word_of(trace.observations()).unwrap();
        assert_eq!(word.len(), trace.len());

        // A made-up observation with an unseen `on/temp` combination may
        // produce no letter.
        let mut unseen = Valuation::zeroed(&vars);
        unseen.set(temp, Value::Int(200));
        unseen.set(on, Value::Bool(true));
        let _ = abs.letter_of(&unseen); // must not panic either way
    }

    #[test]
    fn unseen_discrete_value_has_no_letter() {
        let mut vars = VarSet::new();
        let mode = vars
            .declare("mode", Sort::enumeration("Mode", ["A", "B", "C"]))
            .unwrap();
        let mut set = TraceSet::new();
        let mut v0 = Valuation::zeroed(&vars);
        v0.set(mode, Value::Enum(0));
        let mut v1 = Valuation::zeroed(&vars);
        v1.set(mode, Value::Enum(1));
        set.insert(Trace::new(vec![v0, v1]));
        let abs =
            AlphabetAbstraction::from_traces(&vars, &[mode], &set, AbstractionConfig::default());
        assert_eq!(abs.num_letters(), 2);
        let mut unseen = Valuation::zeroed(&vars);
        unseen.set(mode, Value::Enum(2));
        assert_eq!(abs.letter_of(&unseen), None);
    }

    #[test]
    fn incremental_abstraction_matches_from_traces() {
        use amle_system::TraceStore;
        let (vars, temp, on, traces) = thermostat_traces();
        let config = AbstractionConfig {
            max_distinct_values: 4,
            max_thresholds: 4,
        };
        let observables = [temp, on];
        let mut store = TraceStore::from_trace_set(&traces);
        let mut inc = IncrementalAbstraction::new(config);
        assert_eq!(
            inc.update(&vars, &observables, &store),
            AbstractionUpdate::Rebuilt
        );

        let assert_equivalent = |inc: &IncrementalAbstraction, store: &TraceStore| {
            let fresh = AlphabetAbstraction::from_traces(
                &vars,
                &observables,
                &store.to_trace_set(),
                config,
            );
            let built = inc.abstraction();
            assert_eq!(built.per_var, fresh.per_var, "cell structure diverged");
            assert_eq!(built.num_letters(), fresh.num_letters());
            for letter in fresh.letters() {
                assert_eq!(built.predicate(letter), fresh.predicate(letter));
            }
            for (trace, word) in store.traces().zip(inc.words()) {
                let fresh_word = fresh
                    .word_of(store.materialize(trace).observations())
                    .expect("observed trace has a word");
                assert_eq!(*word, fresh_word, "cached word diverged");
            }
        };
        assert_equivalent(&inc, &store);

        // Grow the store with a splice whose observations are already known
        // (stable alphabet → incremental), then with a brand-new observation
        // (changed cell structure → rebuild). Both must match from-scratch.
        let first = store.traces().next().unwrap();
        let known = store.obs_ids(first)[3];
        let prefix = store.prefix(first, 5);
        store.splice(prefix, known, known).unwrap();
        assert_eq!(
            inc.update(&vars, &observables, &store),
            AbstractionUpdate::Incremental { new_traces: 1 }
        );
        assert_equivalent(&inc, &store);

        let mut fresh_obs = Valuation::zeroed(&vars);
        fresh_obs.set(temp, Value::Int(3));
        fresh_obs.set(on, Value::Bool(true));
        let fresh_obs = store.intern(&fresh_obs);
        store.splice(prefix, fresh_obs, known).unwrap();
        assert_eq!(
            inc.update(&vars, &observables, &store),
            AbstractionUpdate::Rebuilt
        );
        assert_equivalent(&inc, &store);

        // A different store resets the state entirely.
        let other = TraceStore::from_trace_set(&traces);
        assert_eq!(
            inc.update(&vars, &observables, &other),
            AbstractionUpdate::Rebuilt
        );
        assert_equivalent(&inc, &other);
    }

    /// Letters with equal guards share one interned expression node: two
    /// independently built abstractions over the same data synthesise
    /// predicates with identical `ExprId`s, and repeated `predicate()` calls
    /// return the letter's cached node instead of re-assembling the
    /// conjunction.
    #[test]
    fn letter_predicates_are_interned_across_rebuilds() {
        let (vars, temp, on, traces) = thermostat_traces();
        let config = AbstractionConfig::default();
        let a = AlphabetAbstraction::from_traces(&vars, &[temp, on], &traces, config);
        let b = AlphabetAbstraction::from_traces(&vars, &[temp, on], &traces, config);
        assert_eq!(a.num_letters(), b.num_letters());
        for letter in a.letters() {
            assert_eq!(
                a.predicate(letter).id(),
                b.predicate(letter).id(),
                "equal guards must be one hash-consed node"
            );
            assert_eq!(a.predicate(letter).id(), a.predicate(letter).id());
        }
    }

    #[test]
    fn empty_traces_yield_empty_alphabet() {
        let mut vars = VarSet::new();
        let x = vars.declare("x", Sort::int(4)).unwrap();
        let abs = AlphabetAbstraction::from_traces(
            &vars,
            &[x],
            &TraceSet::new(),
            AbstractionConfig::default(),
        );
        assert_eq!(abs.num_letters(), 0);
    }
}
