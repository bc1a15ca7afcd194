//! Fixture: hash containers named in a determinism-scoped crate.
use rustc_hash::FxHashMap;
use std::collections::BTreeMap;

pub fn label_counts(labels: &FxHashMap<u32, u32>) -> Vec<(u32, u32)> {
    let ordered: BTreeMap<u32, u32> = labels.iter().map(|(&l, &c)| (l, c)).collect();
    ordered.into_iter().collect()
}

pub fn seen() -> std::collections::HashSet<u64> {
    Default::default()
}

#[cfg(test)]
mod tests {
    // Test code may hash: only non-test code is in scope.
    #[test]
    fn distinct() {
        let s: std::collections::HashSet<u32> = [1, 1, 2].into_iter().collect();
        assert_eq!(s.len(), 2);
    }
}
