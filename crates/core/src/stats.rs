//! Operation-count accounting for the scheme-switched bootstrap.
//!
//! The functional pipeline and the `heap-hw` performance model must agree
//! on *what work exists* — these formulas are the contract. They also
//! quantify the paper's headline asymmetry: blind-rotation work scales
//! with `n_br` (and parallelizes), while the repack tree scales with the
//! tree shape only.

use heap_tfhe::RgswParams;

/// Static operation counts for one bootstrap invocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BootstrapStats {
    /// Blind rotations (`= n_br`, the extracted LWE count).
    pub blind_rotations: u64,
    /// RGSW external products (`n_br · n_t`, minus mask zeros on average).
    pub external_products: u64,
    /// Hybrid key switches performed by the repacking tree.
    pub repack_key_switches: u64,
    /// LWE dimension switches (`= n_br`).
    pub lwe_key_switches: u64,
    /// Forward/backward NTTs inside the external products
    /// (`2 parts · limbs · digits` digit polynomials, each spread under
    /// `limbs` moduli).
    pub external_product_ntts: u64,
}

impl BootstrapStats {
    /// Computes the counts for a ring of dimension `n`, boot basis of
    /// `limbs` limbs, TFHE mask `n_t`, gadget `rgsw`, and `n_br` extracted
    /// coefficients on the stride comb.
    ///
    /// # Panics
    ///
    /// Panics if `n_br` is zero, exceeds `n`, or does not divide `n`.
    pub fn for_bootstrap(
        n: usize,
        limbs: usize,
        n_t: usize,
        rgsw: &RgswParams,
        n_br: usize,
    ) -> Self {
        assert!(
            n_br >= 1 && n_br <= n && n.is_multiple_of(n_br),
            "invalid n_br"
        );
        let ep = (n_br * n_t) as u64;
        let ep_ntts = ep * (2 * limbs * rgsw.digits * limbs) as u64;
        Self {
            blind_rotations: n_br as u64,
            external_products: ep,
            repack_key_switches: repack_key_switch_count(n, n_br),
            lwe_key_switches: n_br as u64,
            external_product_ntts: ep_ntts,
        }
    }
}

/// Key switches the repacking tree performs for `n_br` leaves on the
/// stride comb (indices `k·N/n_br`): every combine with at least one live
/// child costs one `EvalAuto`. The tree splits by index parity, so the
/// comb's leaves — all multiples of `N/n_br` — stay in one subtree for the
/// top `log2(N/n_br)` levels (one live combine each) and then fill an
/// `n_br`-leaf subtree completely (`n_br − 1` combines).
///
/// # Panics
///
/// Panics unless `n` is a power of two and `n_br` divides it.
pub fn repack_key_switch_count(n: usize, n_br: usize) -> u64 {
    assert!(n.is_power_of_two());
    assert!(n_br >= 1 && n.is_multiple_of(n_br), "invalid n_br");
    (n_br - 1) as u64 + u64::from((n / n_br).trailing_zeros())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_pack_tree_is_n_minus_one() {
        // Every combine is live: N-1 key switches.
        assert_eq!(repack_key_switch_count(128, 128), 127);
        assert_eq!(repack_key_switch_count(1024, 1024), 1023);
    }

    #[test]
    fn single_leaf_tree_is_log_n() {
        // One live path: log2(N) key switches.
        assert_eq!(repack_key_switch_count(128, 1), 7);
        assert_eq!(repack_key_switch_count(1024, 1), 10);
    }

    #[test]
    fn sparse_comb_meets_in_one_subtree() {
        // 16 comb leaves in N=128 share the top 3 levels (one combine
        // each), then fill a 16-leaf subtree: 3 + 15.
        assert_eq!(repack_key_switch_count(128, 16), 18);
        assert_eq!(repack_key_switch_count(2048, 8), 15);
    }

    /// Live combines of the even/odd tree `repack::pack_recursive` walks.
    fn walk(live: &[bool]) -> (bool, u64) {
        if live.len() == 1 {
            return (live[0], 0);
        }
        let (e, ce) = walk(&live.iter().copied().step_by(2).collect::<Vec<_>>());
        let (o, co) = walk(&live.iter().copied().skip(1).step_by(2).collect::<Vec<_>>());
        (e || o, ce + co + u64::from(e || o))
    }

    #[test]
    fn count_equals_the_pack_tree_walk_for_every_comb() {
        for log_n in 0..=11 {
            let n = 1usize << log_n;
            for log_nbr in 0..=log_n {
                let n_br = 1usize << log_nbr;
                let live: Vec<bool> = (0..n).map(|i| i % (n / n_br) == 0).collect();
                assert_eq!(
                    repack_key_switch_count(n, n_br),
                    walk(&live).1,
                    "(N, n_br) = ({n}, {n_br})"
                );
            }
        }
    }

    #[test]
    fn stats_scale_linearly_in_n_br() {
        let rgsw = RgswParams {
            base_bits: 15,
            digits: 2,
        };
        let a = BootstrapStats::for_bootstrap(8192, 7, 500, &rgsw, 4096);
        let b = BootstrapStats::for_bootstrap(8192, 7, 500, &rgsw, 256);
        assert_eq!(a.external_products, 4096 * 500);
        assert_eq!(b.external_products, 256 * 500);
        assert_eq!(a.external_products / b.external_products, 16);
        // The repack side shrinks sublinearly (log-tree floor).
        assert!(a.repack_key_switches / b.repack_key_switches < 16);
    }

    #[test]
    fn paper_scale_work_inventory() {
        // Fully-packed paper configuration: the dominant-work claim.
        let rgsw = RgswParams::paper();
        let s = BootstrapStats::for_bootstrap(8192, 7, 500, &rgsw, 4096);
        assert_eq!(s.blind_rotations, 4096);
        assert_eq!(s.external_products, 2_048_000);
        // Blind-rotation NTT work dwarfs the repack tree by orders of
        // magnitude — why step 3 dominates and why parallelizing it wins.
        assert!(s.external_product_ntts > 100 * s.repack_key_switches);
    }
}
