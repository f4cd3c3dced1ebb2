//! SAT-based exact minimal DFA identification over the abstract alphabet.
//!
//! This learner is the ablation counterpart of [`crate::KTailsLearner`]: it
//! searches for the smallest number of states `N` such that the prefix-tree
//! acceptor of the sample can be folded into an `N`-state deterministic
//! automaton, using the CDCL solver from `amle-sat` (a graph-colouring style
//! encoding in the spirit of exact DFA-identification work).
//!
//! Because the sample contains only positive traces, a naïve "smallest
//! automaton accepting the sample" collapses to a single state. Negative
//! evidence is therefore inferred from the data: if a prefix occurs at least
//! `min_support` times in the sample and a letter of the alphabet is *never*
//! observed after it, the extension of the prefix with that letter is treated
//! as a negative word (the automaton must not admit it). This keeps the
//! learner honest about behaviour that the sample consistently rules out,
//! while satisfying the paper's learner contract (Section II-B: the returned
//! automaton admits every input trace) — the active-learning loop repairs
//! any over-restriction through model checking counterexamples.
//!
//! ## Incremental encoding across refinement iterations
//!
//! On the store-backed path ([`crate::ModelLearner::learn_from_store`]) the
//! learner keeps one folding session alive across the whole active-learning
//! run. Each iteration only the *new* abstract words are folded into the
//! prefix tree and clause-encoded; the mapping, determinism and consistency
//! clauses of everything already encoded — and the clauses the solver learnt
//! refuting earlier sizes — are reused:
//!
//! * the skeleton clause sets are monotone in the number of PTA nodes, edges
//!   and automaton states, so a delta only ever *adds* clauses;
//! * the one non-monotone size constraint ("every PTA node maps to one of
//!   the first `n` states") stays behind the per-size activation literals it
//!   already used within a single size search;
//! * inferred negative evidence can *retract* as support grows, so each
//!   negative's clauses sit behind their own activation literal and only the
//!   currently-inferred negatives are assumed at solve time.
//!
//! A full re-encode only happens when the alphabet abstraction itself
//! changes (new distinct values or re-mined thresholds).

use crate::abstraction::{AbstractionUpdate, IncrementalAbstraction};
use crate::learner::LetterAutomaton;
use crate::{AbstractionConfig, LearnError, LetterId, ModelLearner, Pta, WordStats};
use amle_automaton::Nfa;
use amle_expr::{VarId, VarSet};
use amle_sat::{Lit, SolveResult, Solver, SolverStats, Var};
use amle_system::{TraceSet, TraceStore};
use std::collections::{BTreeMap, BTreeSet};

/// SAT-based minimal-DFA learner.
///
/// The size search is **incremental**: one solver session is kept alive
/// across the growing automaton sizes, and — on the store-backed path —
/// across refinement iterations too (see the module-level docs). Clauses
/// learnt while refuting size `n` keep pruning the search at size `n + 1`
/// and in later iterations.
#[derive(Debug)]
pub struct SatDfaLearner {
    /// Maximum number of automaton states to try before giving up.
    pub max_states: usize,
    /// Minimum number of sample words that must pass through a prefix before
    /// missing extensions of that prefix are treated as negative evidence.
    pub min_support: usize,
    /// Alphabet-abstraction configuration.
    pub abstraction: AbstractionConfig,
    /// Solver statistics accumulated across `learn` calls.
    stats: SolverStats,
    /// Word-pipeline statistics accumulated across `learn` calls.
    word_stats: WordStats,
    /// Incrementally maintained alphabet + words for the store-backed path.
    inc: Option<IncrementalAbstraction>,
    /// The persistent folding session (valid while the alphabet is stable).
    session: Option<SatSession>,
}

/// Equality is configuration equality; accumulated statistics and caches are
/// ignored.
impl PartialEq for SatDfaLearner {
    fn eq(&self, other: &Self) -> bool {
        self.max_states == other.max_states
            && self.min_support == other.min_support
            && self.abstraction == other.abstraction
    }
}

impl Eq for SatDfaLearner {}

impl Clone for SatDfaLearner {
    /// Clones the configuration and statistics; the incremental session is
    /// not cloneable (it owns a live solver) and restarts empty.
    fn clone(&self) -> Self {
        SatDfaLearner {
            max_states: self.max_states,
            min_support: self.min_support,
            abstraction: self.abstraction,
            stats: self.stats,
            word_stats: self.word_stats,
            inc: None,
            session: None,
        }
    }
}

impl Default for SatDfaLearner {
    fn default() -> Self {
        SatDfaLearner {
            max_states: 16,
            min_support: 3,
            abstraction: AbstractionConfig::default(),
            stats: SolverStats::default(),
            word_stats: WordStats::default(),
            inc: None,
            session: None,
        }
    }
}

impl SatDfaLearner {
    /// Creates a learner with the given state bound and default settings.
    pub fn new(max_states: usize) -> Self {
        SatDfaLearner {
            max_states,
            ..Default::default()
        }
    }

    /// Infers negative evidence: `(node, letter index)` pairs such that the
    /// prefix of `node` is well supported but never followed by the letter.
    #[cfg(test)]
    fn inferred_negatives(&self, pta: &Pta, num_letters: usize) -> BTreeSet<(usize, usize)> {
        inferred_negatives(self.min_support, pta, num_letters)
    }
}

/// See [`SatDfaLearner::inferred_negatives`].
fn inferred_negatives(
    min_support: usize,
    pta: &Pta,
    num_letters: usize,
) -> BTreeSet<(usize, usize)> {
    let mut negatives = BTreeSet::new();
    for node in pta.nodes() {
        if pta.support(node) < min_support || pta.children(node).is_empty() {
            continue;
        }
        for letter in 0..num_letters {
            if !pta.children(node).contains_key(&LetterId(letter)) {
                negatives.insert((node, letter));
            }
        }
    }
    negatives
}

/// One incremental folding session: a single solver shared across growing
/// automaton sizes and — as the prefix tree grows — across refinement
/// iterations.
///
/// The clause sets indexed by automaton states are monotone in the size `n`
/// except for the at-least-one mapping constraint, which is guarded by a
/// per-size activation literal; solving size `n` assumes `acts[n - 1]` and
/// leaves every other size's constraint disabled. Negative-evidence clauses
/// are guarded by per-negative activation literals for the same reason:
/// they can retract when new words raise a prefix's support.
struct FoldSession {
    solver: Solver,
    /// Encoded PTA edges as `(node, letter_index, child)`.
    edges: Vec<(usize, usize, usize)>,
    /// `x[node][state]`: PTA node is mapped to automaton state.
    x: Vec<Vec<Var>>,
    /// `y[state][letter][state']`: the automaton has a transition.
    y: Vec<Vec<Vec<Var>>>,
    /// Per-size activation literals; `acts[n - 1]` selects size `n`.
    acts: Vec<Lit>,
    /// Per-negative activation literals, keyed by `(node, letter_index)`.
    negative_acts: BTreeMap<(usize, usize), Lit>,
    /// Current automaton size (number of states encoded so far).
    n: usize,
    num_letters: usize,
}

impl std::fmt::Debug for FoldSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FoldSession")
            .field("nodes", &self.x.len())
            .field("edges", &self.edges.len())
            .field("negatives", &self.negative_acts.len())
            .field("n", &self.n)
            .field("num_letters", &self.num_letters)
            .finish()
    }
}

impl FoldSession {
    fn new() -> Self {
        FoldSession {
            solver: Solver::new(),
            edges: Vec::new(),
            x: Vec::new(),
            y: Vec::new(),
            acts: Vec::new(),
            negative_acts: BTreeMap::new(),
            n: 0,
            num_letters: 0,
        }
    }

    /// Extends the alphabet by one letter: fresh transition variables for
    /// every encoded source state, plus their determinism constraints.
    fn add_letter(&mut self) {
        let a = self.num_letters;
        for s in 0..self.n {
            let row: Vec<Var> = (0..self.n).map(|_| self.solver.new_var()).collect();
            for t1 in 0..self.n {
                for t2 in (t1 + 1)..self.n {
                    self.solver
                        .add_clause([Lit::negative(row[t1]), Lit::negative(row[t2])]);
                }
            }
            self.y[s].push(row);
            debug_assert_eq!(self.y[s].len(), a + 1);
        }
        self.num_letters = a + 1;
    }

    /// Registers one new PTA node: mapping variables for every encoded state,
    /// at-most-one constraints among them, and the size-specific at-least-one
    /// constraint behind each existing size's activation literal.
    fn add_node(&mut self) {
        let vars: Vec<Var> = (0..self.n).map(|_| self.solver.new_var()).collect();
        for s1 in 0..self.n {
            for s2 in (s1 + 1)..self.n {
                self.solver
                    .add_clause([Lit::negative(vars[s1]), Lit::negative(vars[s2])]);
            }
        }
        for size in 1..=self.n {
            let mut clause = Vec::with_capacity(size + 1);
            clause.push(!self.acts[size - 1]);
            clause.extend(vars[..size].iter().map(|v| Lit::positive(*v)));
            self.solver.add_clause(clause);
        }
        self.x.push(vars);
    }

    /// Encodes one new PTA edge `(node, letter, child)`: the consistency
    /// clauses tying the child's mapping to the parent's mapping and the
    /// transition relation, over every encoded state pair.
    fn add_edge(&mut self, node: usize, a: usize, child: usize) {
        for s in 0..self.n {
            for t in 0..self.n {
                self.solver.add_clause([
                    Lit::negative(self.x[node][s]),
                    Lit::negative(self.x[child][t]),
                    Lit::positive(self.y[s][a][t]),
                ]);
                self.solver.add_clause([
                    Lit::negative(self.x[node][s]),
                    Lit::negative(self.y[s][a][t]),
                    Lit::positive(self.x[child][t]),
                ]);
            }
        }
        self.edges.push((node, a, child));
    }

    /// Registers one negative-evidence pair behind a fresh activation
    /// literal: while assumed, letter `a` must be undefined from the state of
    /// `node`.
    fn add_negative(&mut self, node: usize, a: usize) {
        let act = Lit::positive(self.solver.new_var());
        for s in 0..self.n {
            for t in 0..self.n {
                self.solver.add_clause([
                    !act,
                    Lit::negative(self.x[node][s]),
                    Lit::negative(self.y[s][a][t]),
                ]);
            }
        }
        self.negative_acts.insert((node, a), act);
    }

    /// Grows the encoding by one automaton state (size `n` → `n + 1`),
    /// adding only the clauses that mention the new state, plus the
    /// activation-guarded at-least-one constraint for the new size.
    fn grow(&mut self) {
        let m = self.n; // index of the state being added
        let n = m + 1; // new size

        // New mapping variables x[node][m] and at-most-one pairs.
        for node in 0..self.x.len() {
            let v = self.solver.new_var();
            self.x[node].push(v);
            for s1 in 0..m {
                self.solver
                    .add_clause([Lit::negative(self.x[node][s1]), Lit::negative(v)]);
            }
        }
        // New transition variables: extend existing rows with target m, then
        // add the full row for source state m.
        for s in 0..m {
            for a in 0..self.num_letters {
                let v = self.solver.new_var();
                self.y[s][a].push(v);
            }
        }
        let new_row: Vec<Vec<Var>> = (0..self.num_letters)
            .map(|_| (0..n).map(|_| self.solver.new_var()).collect())
            .collect();
        self.y.push(new_row);

        // Symmetry breaking: the root maps to state 0, permanently.
        if m == 0 && !self.x.is_empty() {
            self.solver.add_clause([Lit::positive(self.x[0][0])]);
        }

        // Determinism of y: pairs involving the new target in old rows, and
        // all pairs of the new row.
        for s in 0..m {
            for a in 0..self.num_letters {
                for t1 in 0..m {
                    self.solver.add_clause([
                        Lit::negative(self.y[s][a][t1]),
                        Lit::negative(self.y[s][a][m]),
                    ]);
                }
            }
        }
        for a in 0..self.num_letters {
            for t1 in 0..n {
                for t2 in (t1 + 1)..n {
                    self.solver.add_clause([
                        Lit::negative(self.y[m][a][t1]),
                        Lit::negative(self.y[m][a][t2]),
                    ]);
                }
            }
        }

        // Consistency: only (s, t) pairs that mention the new state are new.
        for index in 0..self.edges.len() {
            let (node, a, child) = self.edges[index];
            for s in 0..n {
                for t in 0..n {
                    if s != m && t != m {
                        continue;
                    }
                    self.solver.add_clause([
                        Lit::negative(self.x[node][s]),
                        Lit::negative(self.x[child][t]),
                        Lit::positive(self.y[s][a][t]),
                    ]);
                    self.solver.add_clause([
                        Lit::negative(self.x[node][s]),
                        Lit::negative(self.y[s][a][t]),
                        Lit::positive(self.x[child][t]),
                    ]);
                }
            }
        }

        // Negative evidence (guarded): pairs that mention the new state, for
        // every negative ever registered — inactive ones are simply never
        // assumed.
        let negatives: Vec<((usize, usize), Lit)> =
            self.negative_acts.iter().map(|(k, v)| (*k, *v)).collect();
        for ((node, a), act) in negatives {
            for s in 0..n {
                for t in 0..n {
                    if s != m && t != m {
                        continue;
                    }
                    self.solver.add_clause([
                        !act,
                        Lit::negative(self.x[node][s]),
                        Lit::negative(self.y[s][a][t]),
                    ]);
                }
            }
        }

        // Size-specific at-least-one mapping, behind an activation literal.
        let act = Lit::positive(self.solver.new_var());
        for node in 0..self.x.len() {
            let mut clause = Vec::with_capacity(n + 1);
            clause.push(!act);
            clause.extend(self.x[node][..n].iter().map(|v| Lit::positive(*v)));
            self.solver.add_clause(clause);
        }
        self.acts.push(act);
        self.n = n;
    }

    /// Attempts the fold at `size` under the currently active negatives;
    /// extracts the automaton on success.
    fn solve_at(
        &mut self,
        size: usize,
        active: &BTreeSet<(usize, usize)>,
        pta: &Pta,
    ) -> Option<LetterAutomaton> {
        debug_assert!(size >= 1 && size <= self.n);
        let mut assumptions = Vec::with_capacity(1 + active.len());
        assumptions.push(self.acts[size - 1]);
        assumptions.extend(active.iter().map(|key| self.negative_acts[key]));
        if self.solver.solve_with_assumptions(&assumptions) != SolveResult::Sat {
            return None;
        }
        // Extract only transitions witnessed by a PTA edge so the automaton
        // does not pick up arbitrary don't-care transitions. The model must
        // be read before further clauses are added.
        let state_of = |node: usize| -> usize {
            (0..size)
                .find(|s| self.solver.value(self.x[node][*s]) == Some(true))
                .expect("every node has a state")
        };
        let mut transitions = BTreeSet::new();
        for node in pta.nodes() {
            for (letter, child) in pta.children(node) {
                transitions.insert((state_of(node), *letter, state_of(*child)));
            }
        }
        Some(LetterAutomaton {
            num_states: size,
            initial: 0,
            transitions,
        })
    }
}

/// The persistent cross-iteration state of the store-backed path.
#[derive(Debug)]
struct SatSession {
    /// Configuration snapshot; a mismatch invalidates the session.
    min_support: usize,
    pta: Pta,
    fold: FoldSession,
    /// Number of cached words already folded into the PTA and encoded.
    words_done: usize,
    /// Negatives assumed at the previous solve, to detect retraction.
    last_negatives: BTreeSet<(usize, usize)>,
    /// Size of the automaton found by the previous call (0 = none yet).
    found_size: usize,
    /// Solver statistics already harvested into the learner's accumulator.
    harvested: SolverStats,
}

impl SatSession {
    fn fresh(min_support: usize) -> Self {
        SatSession {
            min_support,
            pta: Pta::new(),
            fold: FoldSession::new(),
            words_done: 0,
            last_negatives: BTreeSet::new(),
            found_size: 0,
            harvested: SolverStats::default(),
        }
    }
}

impl SatDfaLearner {
    /// The store-backed learning path shared by `learn` (on a temporary
    /// store) and `learn_from_store`.
    fn learn_incremental(
        &mut self,
        vars: &VarSet,
        observables: &[VarId],
        store: &TraceStore,
    ) -> Result<Nfa, LearnError> {
        if store.is_empty() {
            return Err(LearnError::NoTraces);
        }
        let config = self.abstraction;
        let inc_reusable = matches!(&self.inc, Some(i) if i.config() == config);
        if !inc_reusable {
            self.inc = Some(IncrementalAbstraction::new(config));
            self.discard_session();
        }
        let update = self
            .inc
            .as_mut()
            .expect("abstraction cache just ensured")
            .update(vars, observables, store);
        let alphabet_stable = matches!(update, AbstractionUpdate::Incremental { .. });
        let session_reusable = alphabet_stable
            && matches!(&self.session, Some(s) if s.min_support == self.min_support);
        if !session_reusable {
            self.discard_session();
            self.session = Some(SatSession::fresh(self.min_support));
        }
        let min_support = self.min_support;
        let inc = self.inc.as_ref().expect("abstraction cache exists");
        let abstraction = inc.abstraction();
        let words = inc.words();
        let num_letters = abstraction.num_letters();
        let session = self.session.as_mut().expect("session just ensured");

        // 1. Extend the alphabet planes of the encoding.
        let letters_grew = session.fold.num_letters < num_letters;
        while session.fold.num_letters < num_letters {
            session.fold.add_letter();
        }
        // The root node exists before any word is folded.
        if session.fold.x.is_empty() {
            session.fold.add_node();
        }

        // 2. Fold only the new words into the PTA, encoding the created
        //    nodes and edges, and remembering every node the new words pass
        //    through — negative evidence can only change at those nodes
        //    (support is monotone and child edges are permanent).
        let mut created = Vec::new();
        let mut touched: BTreeSet<usize> = BTreeSet::new();
        for word in &words[session.words_done..] {
            created.clear();
            session.pta.add_word_recording(word, &mut created);
            for (node, letter, child) in &created {
                session.fold.add_node();
                debug_assert_eq!(session.fold.x.len() - 1, *child);
                session.fold.add_edge(*node, letter.index(), *child);
            }
            let mut node = session.pta.root();
            touched.insert(node);
            for letter in word {
                node = *session
                    .pta
                    .children(node)
                    .get(letter)
                    .expect("word was just added to the PTA");
                touched.insert(node);
            }
        }
        self.word_stats.words_encoded += (words.len() - session.words_done) as u64;
        self.word_stats.words_reused += session.words_done as u64;
        session.words_done = words.len();

        // 3. Refresh the negative evidence. A new letter can create
        //    negatives at *untouched* nodes, so alphabet growth falls back
        //    to the full (node × letter) recompute; otherwise only the
        //    touched nodes' rows are revisited. `monotone` records whether
        //    any previously active negative retracted.
        let (negatives, monotone) = if letters_grew {
            let negatives = inferred_negatives(min_support, &session.pta, num_letters);
            let monotone = session.last_negatives.is_subset(&negatives);
            (negatives, monotone)
        } else {
            let mut negatives = std::mem::take(&mut session.last_negatives);
            let mut retracted = false;
            for node in &touched {
                let stale: Vec<(usize, usize)> = negatives
                    .range((*node, 0)..=(*node, usize::MAX))
                    .copied()
                    .collect();
                for key in &stale {
                    negatives.remove(key);
                }
                if session.pta.support(*node) >= min_support
                    && !session.pta.children(*node).is_empty()
                {
                    for letter in 0..num_letters {
                        if !session.pta.children(*node).contains_key(&LetterId(letter)) {
                            negatives.insert((*node, letter));
                        }
                    }
                }
                retracted |= stale.iter().any(|key| !negatives.contains(key));
            }
            debug_assert_eq!(
                negatives,
                inferred_negatives(min_support, &session.pta, num_letters),
                "incremental negative update diverged from the full recompute"
            );
            (negatives, !retracted)
        };
        for key in &negatives {
            if !session.fold.negative_acts.contains_key(key) {
                session.fold.add_negative(key.0, key.1);
            }
        }

        // 4. Pick the starting size. Constraints grew monotonically iff no
        //    negative was retracted, in which case previously refuted sizes
        //    stay refuted and the search can resume at the last found size.
        let start = if monotone && session.found_size > 0 {
            session.found_size
        } else {
            1
        };

        // 5. Size search, reusing the session (and everything the solver
        //    learnt refuting smaller sizes).
        let mut found = None;
        for size in start..=self.max_states {
            while session.fold.n < size {
                session.fold.grow();
            }
            if let Some(letter_automaton) = session.fold.solve_at(size, &negatives, &session.pta) {
                session.found_size = size;
                found = Some(letter_automaton);
                break;
            }
        }
        session.last_negatives = negatives;
        let delta = session.fold.solver.stats().since(&session.harvested);
        session.harvested = session.fold.solver.stats();
        self.stats += delta;
        match found {
            Some(letter_automaton) => {
                debug_assert!(
                    words.iter().all(|w| letter_automaton.accepts_word(w)),
                    "SAT folding must accept every sample word"
                );
                Ok(letter_automaton.to_nfa(abstraction))
            }
            None => Err(LearnError::SearchExhausted {
                reason: format!("no consistent DFA with at most {} states", self.max_states),
            }),
        }
    }

    /// Drops the folding session, harvesting its outstanding solver
    /// statistics first.
    fn discard_session(&mut self) {
        if let Some(session) = self.session.take() {
            self.stats += session.fold.solver.stats().since(&session.harvested);
        }
    }
}

impl ModelLearner for SatDfaLearner {
    fn learn(
        &mut self,
        vars: &VarSet,
        observables: &[VarId],
        traces: &TraceSet,
    ) -> Result<Nfa, LearnError> {
        if traces.is_empty() {
            return Err(LearnError::NoTraces);
        }
        // A flat trace set carries no identity to be incremental against:
        // restart from a temporary store (the next store-backed call resets
        // again, so behaviour stays run-deterministic).
        self.inc = None;
        self.discard_session();
        let store = TraceStore::from_trace_set(traces);
        let result = self.learn_incremental(vars, observables, &store);
        // The session and word cache reference the dropped temporary store
        // and can never be reused — free them (harvesting solver stats)
        // rather than holding the full encoding until the next call.
        self.inc = None;
        self.discard_session();
        result
    }

    fn learn_from_store(
        &mut self,
        vars: &VarSet,
        observables: &[VarId],
        store: &TraceStore,
    ) -> Result<Nfa, LearnError> {
        self.learn_incremental(vars, observables, store)
    }

    fn name(&self) -> &'static str {
        "satdfa"
    }

    fn solver_stats(&self) -> SolverStats {
        self.stats
    }

    fn word_stats(&self) -> WordStats {
        self.word_stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amle_expr::{Sort, Value};
    use amle_system::{Simulator, SystemBuilder};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn toggle_system() -> amle_system::System {
        // A mode bit that toggles whenever `press` is true.
        let mut b = SystemBuilder::new();
        let press = b.input("press", Sort::Bool).unwrap();
        let mode = b.state("mode", Sort::Bool, Value::Bool(false)).unwrap();
        let update = b.var(press).ite(&b.var(mode).not(), &b.var(mode));
        b.update(mode, update).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn sat_learner_accepts_all_training_traces() {
        let sys = toggle_system();
        let sim = Simulator::new(&sys);
        let mut rng = StdRng::seed_from_u64(2);
        let traces = sim.random_traces(8, 8, &mut rng);
        let mut learner = SatDfaLearner::default();
        let observables = sys.all_vars();
        let nfa = learner.learn(sys.vars(), &observables, &traces).unwrap();
        for trace in traces.iter() {
            assert!(nfa.accepts_trace(trace));
        }
    }

    #[test]
    fn sat_learner_is_no_larger_than_ktails() {
        let sys = toggle_system();
        let sim = Simulator::new(&sys);
        let mut rng = StdRng::seed_from_u64(9);
        let traces = sim.random_traces(6, 8, &mut rng);
        let observables = sys.all_vars();
        let sat_states = SatDfaLearner::default()
            .learn(sys.vars(), &observables, &traces)
            .unwrap()
            .num_states();
        let ktails_states = crate::KTailsLearner::new(2)
            .learn(sys.vars(), &observables, &traces)
            .unwrap()
            .num_states();
        assert!(sat_states <= ktails_states.max(1) + 1);
    }

    #[test]
    fn exhausted_search_is_reported() {
        let sys = toggle_system();
        let sim = Simulator::new(&sys);
        let mut rng = StdRng::seed_from_u64(4);
        let traces = sim.random_traces(6, 10, &mut rng);
        let mut learner = SatDfaLearner {
            max_states: 0,
            ..Default::default()
        };
        let observables = sys.all_vars();
        assert!(matches!(
            learner.learn(sys.vars(), &observables, &traces),
            Err(LearnError::SearchExhausted { .. })
        ));
    }

    #[test]
    fn empty_trace_set_is_an_error() {
        let sys = toggle_system();
        let mut learner = SatDfaLearner::default();
        let observables = sys.all_vars();
        assert_eq!(
            learner.learn(sys.vars(), &observables, &TraceSet::new()),
            Err(LearnError::NoTraces)
        );
        assert_eq!(
            learner.learn_from_store(sys.vars(), &observables, &TraceStore::new()),
            Err(LearnError::NoTraces)
        );
    }

    #[test]
    fn negative_inference_respects_support_threshold() {
        let words = [
            vec![LetterId(0), LetterId(1)],
            vec![LetterId(0), LetterId(1)],
            vec![LetterId(0), LetterId(1)],
        ];
        let pta = Pta::from_words(words.iter().map(|w| w.as_slice()));
        let strict = SatDfaLearner {
            min_support: 1,
            ..Default::default()
        };
        let lax = SatDfaLearner {
            min_support: 100,
            ..Default::default()
        };
        assert!(!strict.inferred_negatives(&pta, 2).is_empty());
        assert!(lax.inferred_negatives(&pta, 2).is_empty());
    }

    #[test]
    fn incremental_store_path_matches_fresh_learner() {
        // Grow a store in two steps; the session must keep accepting every
        // word, and the automaton size must match what a fresh learner finds
        // on the final sample.
        let sys = toggle_system();
        let sim = Simulator::new(&sys);
        let mut rng = StdRng::seed_from_u64(11);
        let traces = sim.random_traces(8, 8, &mut rng);
        let observables = sys.all_vars();

        let mut store = TraceStore::new();
        for trace in traces.iter().take(4) {
            store.insert_trace(trace);
        }
        let mut incremental = SatDfaLearner::default();
        let first = incremental
            .learn_from_store(sys.vars(), &observables, &store)
            .unwrap();
        assert!(first.num_states() >= 1);
        for trace in traces.iter() {
            store.insert_trace(trace);
        }
        let second = incremental
            .learn_from_store(sys.vars(), &observables, &store)
            .unwrap();

        let fresh = SatDfaLearner::default()
            .learn(sys.vars(), &observables, &store.to_trace_set())
            .unwrap();
        assert_eq!(second.num_states(), fresh.num_states());
        for trace in store.to_trace_set().iter() {
            assert!(second.accepts_trace(trace));
        }
        // The second call reused the words already encoded (if the alphabet
        // stayed stable) or re-encoded everything (if not); either way the
        // counters account for every word exactly once per call.
        let stats = incremental.word_stats();
        assert_eq!(
            stats.words_encoded + stats.words_reused,
            (store.len() + 4) as u64
        );
    }
}
