//! Reusable flat CSR (compressed sparse row) adjacency-style storage.
//!
//! The pebble scheduler's hot path needs, for every vertex, the sorted list
//! of compute-order positions at which the vertex is used. Building that as
//! `Vec<Vec<u64>>` costs one heap allocation per vertex per run; [`Csr`]
//! stores the same data as two flat arrays (`offsets` + `items`) built by a
//! two-pass counting sort, and `rebuild` reuses the allocations across
//! builds — the "build once per (graph, order), reuse across the (policy, M)
//! grid" pattern of `mmio_pebble::sweep`.

/// Flat CSR storage: `items[offsets[k]..offsets[k + 1]]` is row `k`.
///
/// Rows preserve emission order, so emitting items in ascending order per
/// key yields sorted rows without a sort pass.
#[derive(Clone, Debug, Default)]
pub struct Csr {
    offsets: Vec<u32>,
    items: Vec<u64>,
    cursors: Vec<u32>,
}

impl Csr {
    /// An empty CSR (no keys, no items).
    pub fn new() -> Csr {
        Csr::default()
    }

    /// Rebuilds the CSR for `n_keys` rows from scratch, reusing existing
    /// allocations. `emit` is called exactly twice with a sink closure and
    /// must produce the same `(key, item)` sequence both times (first pass
    /// counts, second pass fills).
    ///
    /// # Panics
    /// Panics if `emit` produces a key `>= n_keys`, or a different number of
    /// items on the second pass.
    pub fn rebuild(&mut self, n_keys: usize, emit: impl Fn(&mut dyn FnMut(u32, u64))) {
        self.offsets.clear();
        self.offsets.resize(n_keys + 1, 0);
        emit(&mut |key, _item| {
            self.offsets[key as usize + 1] += 1;
        });
        for k in 0..n_keys {
            self.offsets[k + 1] += self.offsets[k];
        }
        let total = self.offsets[n_keys] as usize;
        self.items.clear();
        self.items.resize(total, 0);
        self.cursors.clear();
        self.cursors.extend_from_slice(&self.offsets[..n_keys]);
        emit(&mut |key, item| {
            let cur = &mut self.cursors[key as usize];
            self.items[*cur as usize] = item;
            *cur += 1;
        });
        debug_assert!(
            (0..n_keys).all(|k| self.cursors[k] == self.offsets[k + 1]),
            "emit produced fewer items on the fill pass than on the count pass"
        );
    }

    /// Number of rows.
    pub fn n_keys(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// Total number of stored items.
    pub fn n_items(&self) -> usize {
        self.items.len()
    }

    /// Row starts: row `key` begins at `items()[offsets()[key]]`; the
    /// final entry is the item count.
    pub fn offsets(&self) -> &[u32] {
        &self.offsets
    }

    /// Every row's items, concatenated in key order.
    pub fn items(&self) -> &[u64] {
        &self.items
    }

    /// Row `key` as a slice (empty slice for keys with no items).
    #[inline]
    pub fn row(&self, key: usize) -> &[u64] {
        &self.items[self.offsets[key] as usize..self.offsets[key + 1] as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_rows_in_emission_order() {
        let mut csr = Csr::new();
        let pairs = [(2u32, 10u64), (0, 5), (2, 11), (1, 7), (2, 12)];
        csr.rebuild(4, |sink| {
            for &(k, v) in &pairs {
                sink(k, v);
            }
        });
        assert_eq!(csr.n_keys(), 4);
        assert_eq!(csr.n_items(), 5);
        assert_eq!(csr.row(0), &[5]);
        assert_eq!(csr.row(1), &[7]);
        assert_eq!(csr.row(2), &[10, 11, 12]);
        assert_eq!(csr.row(3), &[] as &[u64]);
    }

    #[test]
    fn rebuild_reuses_and_replaces() {
        let mut csr = Csr::new();
        csr.rebuild(2, |sink| {
            sink(0, 1);
            sink(1, 2);
        });
        csr.rebuild(3, |sink| {
            sink(2, 9);
        });
        assert_eq!(csr.n_keys(), 3);
        assert_eq!(csr.row(0), &[] as &[u64]);
        assert_eq!(csr.row(2), &[9]);
    }

    #[test]
    fn empty_is_fine() {
        let mut csr = Csr::new();
        csr.rebuild(0, |_sink| {});
        assert_eq!(csr.n_keys(), 0);
        assert_eq!(csr.n_items(), 0);
    }
}
