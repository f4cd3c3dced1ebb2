//! Prefix-tree acceptor (PTA) over abstract letters: the trie of the sample
//! words the passive learners (Section II-B of the paper) generalise by
//! state merging or SAT-based folding.

use crate::LetterId;
use std::collections::{BTreeMap, HashMap};

/// A prefix-tree acceptor: the trie of all abstract words in the sample.
///
/// Node 0 is the root (empty word). Every node of the PTA corresponds to a
/// prefix occurring in the trace sample; the learners merge PTA nodes into
/// automaton states.
#[derive(Debug, Clone, Default)]
pub struct Pta {
    children: Vec<BTreeMap<LetterId, usize>>,
    support: Vec<usize>,
}

impl Pta {
    /// Creates a PTA containing only the empty word.
    pub fn new() -> Self {
        Pta {
            children: vec![BTreeMap::new()],
            support: vec![0],
        }
    }

    /// Builds a PTA from a collection of abstract words.
    pub fn from_words<'a, I: IntoIterator<Item = &'a [LetterId]>>(words: I) -> Self {
        let mut pta = Pta::new();
        for word in words {
            pta.add_word(word);
        }
        pta
    }

    /// Adds one abstract word (and implicitly all its prefixes).
    pub fn add_word(&mut self, word: &[LetterId]) {
        let mut created = Vec::new();
        self.add_word_recording(word, &mut created);
    }

    /// Adds one abstract word, appending every trie edge it creates to
    /// `created` as `(parent, letter, child)` in creation order (each
    /// created edge introduces exactly one new node, its child).
    ///
    /// Incremental consumers — the SAT-DFA learner's persistent folding
    /// session — use the recording to encode only the *delta* of the
    /// prefix tree instead of re-encoding it from scratch.
    pub fn add_word_recording(
        &mut self,
        word: &[LetterId],
        created: &mut Vec<(usize, LetterId, usize)>,
    ) {
        let mut node = 0usize;
        self.support[0] += 1;
        for letter in word {
            node = match self.children[node].get(letter) {
                Some(next) => *next,
                None => {
                    let next = self.children.len();
                    self.children.push(BTreeMap::new());
                    self.support.push(0);
                    self.children[node].insert(*letter, next);
                    created.push((node, *letter, next));
                    next
                }
            };
            self.support[node] += 1;
        }
    }

    /// Number of nodes (prefixes) in the tree.
    pub fn num_nodes(&self) -> usize {
        self.children.len()
    }

    /// The root node (empty prefix).
    pub fn root(&self) -> usize {
        0
    }

    /// The children of a node, keyed by letter.
    pub fn children(&self, node: usize) -> &BTreeMap<LetterId, usize> {
        &self.children[node]
    }

    /// How many sample words pass through the node (the node's support).
    pub fn support(&self, node: usize) -> usize {
        self.support[node]
    }

    /// Partition of the nodes by equality of their depth-`k` futures
    /// (k-tails). Returns one class index per node; nodes with equal class
    /// index have identical future behaviour up to depth `k`.
    pub fn kfuture_classes(&self, k: usize) -> Vec<usize> {
        let n = self.num_nodes();
        // Depth 0: every node is equivalent.
        let mut classes = vec![0usize; n];
        for _ in 0..k {
            let mut interner: HashMap<Vec<(LetterId, usize)>, usize> = HashMap::new();
            let mut next: Vec<usize> = vec![0; n];
            for (node, slot) in next.iter_mut().enumerate() {
                let signature: Vec<(LetterId, usize)> = self.children[node]
                    .iter()
                    .map(|(l, c)| (*l, classes[*c]))
                    .collect();
                let len = interner.len();
                *slot = *interner.entry(signature).or_insert(len);
            }
            if next == classes {
                break;
            }
            classes = next;
        }
        classes
    }

    /// All nodes in index order.
    pub fn nodes(&self) -> impl Iterator<Item = usize> {
        0..self.children.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l(i: usize) -> LetterId {
        LetterId(i)
    }

    #[test]
    fn building_and_sharing_prefixes() {
        let words = [vec![l(0), l(1), l(2)], vec![l(0), l(1), l(0)], vec![l(1)]];
        let pta = Pta::from_words(words.iter().map(|w| w.as_slice()));
        // root + 0 + 01 + 012 + 010 + 1 = 6 nodes
        assert_eq!(pta.num_nodes(), 6);
        assert_eq!(pta.children(pta.root()).len(), 2);
        assert_eq!(pta.support(pta.root()), 3);
    }

    #[test]
    fn kfuture_classes_distinguish_only_up_to_depth() {
        // Two branches: after letter 0 we can do 1 then 2; after letter 3 we
        // can do 1 then 4. At depth 1 the nodes reached by 0 and 3 look the
        // same (both offer letter 1); at depth 2 they differ.
        let words = [vec![l(0), l(1), l(2)], vec![l(3), l(1), l(4)]];
        let pta = Pta::from_words(words.iter().map(|w| w.as_slice()));
        let after0 = *pta.children(pta.root()).get(&l(0)).unwrap();
        let after3 = *pta.children(pta.root()).get(&l(3)).unwrap();

        let depth1 = pta.kfuture_classes(1);
        assert_eq!(depth1[after0], depth1[after3]);

        let depth2 = pta.kfuture_classes(2);
        assert_ne!(depth2[after0], depth2[after3]);
    }

    #[test]
    fn depth_zero_merges_everything() {
        let words = [vec![l(0)], vec![l(1), l(2)]];
        let pta = Pta::from_words(words.iter().map(|w| w.as_slice()));
        let classes = pta.kfuture_classes(0);
        assert!(classes.iter().all(|c| *c == classes[0]));
    }

    #[test]
    fn leaves_share_a_class() {
        let words = [vec![l(0), l(1)], vec![l(2)]];
        let pta = Pta::from_words(words.iter().map(|w| w.as_slice()));
        let classes = pta.kfuture_classes(3);
        // Both leaves have empty futures.
        let leaf_classes: Vec<usize> = pta
            .nodes()
            .filter(|n| pta.children(*n).is_empty())
            .map(|n| classes[n])
            .collect();
        assert!(leaf_classes.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn support_counts_words_through_node() {
        let words = [vec![l(0), l(1)], vec![l(0), l(2)], vec![l(0), l(1)]];
        let pta = Pta::from_words(words.iter().map(|w| w.as_slice()));
        let after0 = *pta.children(pta.root()).get(&l(0)).unwrap();
        assert_eq!(pta.support(after0), 3);
        let after01 = *pta.children(after0).get(&l(1)).unwrap();
        assert_eq!(pta.support(after01), 2);
    }
}
