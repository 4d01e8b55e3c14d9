//! Consistent-hash ring over backend identities.
//!
//! Each backend contributes `vnodes` points on a 64-bit ring, placed by a
//! stable FNV-1a hash of `"{backend_id}#{vnode}"`. A request key (the
//! canonical shape hash) routes to the owner of the first point at or after
//! the key, wrapping; failover order is the subsequent *distinct* backends
//! in ring order. Because points depend only on backend identity — not on
//! list position or fleet size — adding or removing one backend remaps only
//! the keys that backend owned.

use sdlo_ir::canon::fnv1a64;

/// An immutable ring over `n` backends. Eviction does not rebuild the ring:
/// the router walks [`Ring::order`] and skips unhealthy backends, so a
/// backend's keys come straight back to it on re-admission.
#[derive(Debug)]
pub struct Ring {
    /// `(point, backend index)`, sorted by point.
    points: Vec<(u64, usize)>,
    backends: usize,
}

impl Ring {
    /// Build the ring from backend identities (addresses). `vnodes` points
    /// per backend; more points → smoother key distribution.
    pub fn build<S: AsRef<str>>(backend_ids: &[S], vnodes: usize) -> Ring {
        let vnodes = vnodes.max(1);
        let mut points = Vec::with_capacity(backend_ids.len() * vnodes);
        for (idx, id) in backend_ids.iter().enumerate() {
            for v in 0..vnodes {
                points.push((fnv1a64(format!("{}#{v}", id.as_ref()).as_bytes()), idx));
            }
        }
        points.sort_unstable();
        Ring {
            points,
            backends: backend_ids.len(),
        }
    }

    pub fn len(&self) -> usize {
        self.backends
    }

    pub fn is_empty(&self) -> bool {
        self.backends == 0
    }

    pub fn points(&self) -> usize {
        self.points.len()
    }

    /// The backend owning `key`.
    pub fn primary(&self, key: u64) -> Option<usize> {
        self.order(key).first().copied()
    }

    /// Every backend exactly once, in ring order starting at `key`'s owner:
    /// `order(key)[0]` is the primary, the rest is the failover sequence.
    pub fn order(&self, key: u64) -> Vec<usize> {
        let mut out = Vec::with_capacity(self.backends);
        if self.points.is_empty() {
            return out;
        }
        let start = self.points.partition_point(|(p, _)| *p < key);
        let n = self.points.len();
        let mut seen = vec![false; self.backends];
        for i in 0..n {
            let (_, idx) = self.points[(start + i) % n];
            if !seen[idx] {
                seen[idx] = true;
                out.push(idx);
                if out.len() == self.backends {
                    break;
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("127.0.0.1:{}", 7000 + i)).collect()
    }

    #[test]
    fn order_is_a_permutation_with_stable_primary() {
        let ring = Ring::build(&ids(4), 64);
        for key in (0..1000u64).map(|k| k.wrapping_mul(0x9e37_79b9_7f4a_7c15)) {
            let order = ring.order(key);
            let mut sorted = order.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, vec![0, 1, 2, 3], "order must cover every backend");
            assert_eq!(ring.order(key), order, "routing must be deterministic");
            assert_eq!(ring.primary(key), Some(order[0]));
        }
    }

    #[test]
    fn keys_spread_over_backends() {
        let ring = Ring::build(&ids(3), 64);
        let mut counts = [0usize; 3];
        let keys = 9000u64;
        for key in (0..keys).map(|k| k.wrapping_mul(0x9e37_79b9_7f4a_7c15)) {
            counts[ring.primary(key).unwrap()] += 1;
        }
        for (idx, c) in counts.iter().enumerate() {
            // Perfect balance would be 3000 each; vnodes=64 keeps every
            // backend within a loose 2x band of fair share.
            assert!(
                *c > 1500 && *c < 4500,
                "backend {idx} owns {c} of {keys} keys"
            );
        }
    }

    #[test]
    fn removing_a_backend_only_remaps_its_own_keys() {
        let all = ids(4);
        let ring4 = Ring::build(&all, 64);
        let ring3 = Ring::build(&all[..3], 64);
        for key in (0..2000u64).map(|k| k.wrapping_mul(0x9e37_79b9_7f4a_7c15)) {
            let p4 = ring4.primary(key).unwrap();
            if p4 != 3 {
                // A key not owned by the removed backend keeps its owner.
                assert_eq!(ring3.primary(key), Some(p4), "key {key:#x} moved");
            } else {
                // The removed backend's keys fall to its ring successor.
                assert_eq!(ring3.primary(key), Some(ring4.order(key)[1]));
            }
        }
    }

    #[test]
    fn skipping_the_primary_matches_ring_successor() {
        // Eviction-by-skipping must agree with what a rebuilt ring would
        // do: the failover target is the next distinct backend in ring
        // order, which `order()[1]` names.
        let ring = Ring::build(&ids(3), 64);
        for key in (0..500u64).map(|k| k.wrapping_mul(0x9e37_79b9_7f4a_7c15)) {
            let order = ring.order(key);
            assert_ne!(order[0], order[1]);
        }
    }

    #[test]
    fn degenerate_rings() {
        let empty: Vec<String> = vec![];
        assert!(Ring::build(&empty, 64).order(42).is_empty());
        let one = Ring::build(&ids(1), 1);
        assert_eq!(one.order(42), vec![0]);
        assert_eq!(one.points(), 1);
    }
}
