//! Deterministic test harness shared by the integration tests and benches.
//!
//! Everything here is reproducible by construction: RNGs come only from
//! explicit seeds, simulation configurations are canonical named presets,
//! and the paper's Table 1 values live in one golden table instead of being
//! scattered through test files. The invariant helpers encode the
//! cross-crate laws (fork axioms, margin dominance, exact-≤-bound) that
//! every future PR must keep true.

use multihonest::chars::{BernoulliCondition, CharString};
use multihonest::margin::recurrence;
use multihonest::margin::ExactSettlement;
use multihonest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A deterministic RNG fixture. All workspace tests derive their randomness
/// from this function so failures replay exactly.
pub fn rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// Samples `count` characteristic strings of length `len` from `cond`,
/// deterministically in `seed`.
pub fn sample_strings(
    cond: &BernoulliCondition,
    seed: u64,
    count: usize,
    len: usize,
) -> Vec<CharString> {
    let mut rng = rng(seed);
    (0..count).map(|_| cond.sample(&mut rng, len)).collect()
}

/// Canonical [`SimConfig`] presets shared by the integration tests.
pub mod presets {
    use super::*;

    /// The baseline semi-synchronous configuration used across the
    /// theory-vs-simulation suite: 8 honest nodes, 35% adversarial stake,
    /// f = 0.3, Δ = 0, private withholding with adversarial tie-breaking.
    pub fn base_sim() -> SimConfig {
        SimConfig {
            honest_nodes: 8,
            adversarial_stake: 0.35,
            active_slot_coeff: 0.3,
            delta: 0,
            slots: 500,
            tie_break: TieBreak::AdversarialOrder,
            strategy: Strategy::PrivateWithholding,
        }
    }

    /// A 45%-stake variant strong enough to exhibit settlement violations
    /// within a few hundred slots.
    pub fn high_stake_sim() -> SimConfig {
        SimConfig {
            adversarial_stake: 0.45,
            slots: 800,
            ..base_sim()
        }
    }

    /// A purely honest execution (chain growth / quality baselines).
    pub fn honest_sim() -> SimConfig {
        SimConfig {
            adversarial_stake: 0.0,
            strategy: Strategy::Honest,
            slots: 2_000,
            ..base_sim()
        }
    }

    /// The Bernoulli condition behind a Table-1 cell (canonical
    /// parameterization: [`BernoulliCondition::from_alpha_ratio`]).
    pub fn table1_condition(alpha: f64, ratio: f64) -> BernoulliCondition {
        BernoulliCondition::from_alpha_ratio(alpha, ratio).expect("table parameters are valid")
    }
}

/// Golden snapshots of paper Table 1 (page 26) and the harness that checks
/// the exact DP against them.
pub mod golden {
    use super::*;

    /// One pinned Table-1 cell: `(alpha, ratio, k, published value)`.
    pub type GoldenCell = (f64, f64, usize, f64);

    /// Default relative tolerance against published values: the paper's
    /// code truncates/rounds slightly differently, so 5% is the tightest
    /// uniformly honest bound.
    pub const PUBLISHED_RTOL: f64 = 0.05;

    /// The α sweep of the fully-synchronous (`ratio = 1`) `k = 100` row.
    pub const K100_ROW: &[GoldenCell] = &[
        (0.01, 1.0, 100, 5.70e-54),
        (0.10, 1.0, 100, 5.10e-18),
        (0.20, 1.0, 100, 2.28e-8),
        (0.30, 1.0, 100, 8.00e-4),
        (0.40, 1.0, 100, 1.37e-1),
        (0.49, 1.0, 100, 9.05e-1),
    ];

    /// Cells with multi-honest rows (`ratio < 1`).
    pub const MULTI_HONEST_CELLS: &[GoldenCell] = &[
        (0.20, 0.9, 100, 3.24e-8),
        (0.20, 0.8, 100, 5.10e-8),
        (0.30, 0.5, 100, 2.80e-3),
        (0.40, 0.25, 100, 3.17e-1),
        (0.30, 0.25, 200, 3.36e-4),
        (0.10, 0.25, 200, 1.06e-15),
    ];

    /// Deeper-horizon cells (k up to 400).
    pub const DEEP_K_CELLS: &[GoldenCell] = &[
        (0.30, 1.0, 300, 3.25e-9),
        (0.40, 1.0, 400, 2.18e-3),
        (0.30, 0.8, 200, 2.73e-6),
        (0.20, 0.5, 300, 6.60e-19),
        (0.20, 1.0, 400, 8.02e-30),
        (0.49, 1.0, 400, 8.29e-1),
    ];

    /// Computes one Table-1 cell with the exact settlement DP.
    pub fn table1_cell(alpha: f64, ratio: f64, k: usize) -> f64 {
        ExactSettlement::new(presets::table1_condition(alpha, ratio)).violation_probability(k)
    }

    /// Exact regression pins, `(ε, p_h, k, pinned value)`: full-precision
    /// outputs of this implementation's margin DP, frozen at workspace
    /// bootstrap. Unlike the published cells (compared at 5%), these are
    /// checked to 1e-12 relative so any change to the DP — reordering of
    /// accumulations included — is caught exactly.
    pub const EXACT_PIN_CELLS: &[(f64, f64, usize, f64)] = &[
        (0.2, 0.4, 50, 3.3778189883856813e-1),
        (0.2, 0.4, 150, 8.653534103129874e-2),
        (0.3, 0.3, 100, 3.937284428525752e-2),
        (0.4, 0.6, 100, 9.978635859396378e-4),
        (0.1, 0.2, 80, 6.623841191521084e-1),
        (0.05, 0.5, 200, 6.702045348289039e-1),
    ];

    /// Relative tolerance for [`EXACT_PIN_CELLS`]: allows only
    /// last-few-ulp noise, not algorithmic drift.
    pub const EXACT_PIN_RTOL: f64 = 1e-12;

    /// Exact regression pins for the **cumulative horizon** variant,
    /// `(ε, p_h, k, horizon, pinned value)`: full-precision outputs of
    /// [`ExactSettlement::violation_by_horizon`], frozen from the
    /// pre-banding (seed) kernel so the fused incremental-absorption path
    /// is pinned to the original sweep-based accounting at 1e-12.
    pub const HORIZON_PIN_CELLS: &[(f64, f64, usize, usize, f64)] = &[
        (0.2, 0.4, 20, 60, 6.438614610722835e-1),
        (0.3, 0.3, 40, 120, 2.551925817226445e-1),
        (0.4, 0.6, 60, 200, 1.3891542917455512e-2),
        (0.1, 0.2, 30, 90, 8.725806631805576e-1),
        (0.05, 0.5, 50, 150, 9.018876678179283e-1),
    ];

    /// Exact regression pins for the finite-prefix variant,
    /// `(ε, p_h, prefix length m, k, pinned value)`, frozen from the seed
    /// kernel like [`HORIZON_PIN_CELLS`].
    pub const FINITE_PREFIX_PIN_CELLS: &[(f64, f64, usize, usize, f64)] = &[
        (0.2, 0.4, 50, 40, 3.8686454521574176e-1),
        (0.3, 0.5, 200, 80, 4.137463537709113e-2),
    ];

    /// Asserts every exact-pin cell reproduces its frozen value.
    pub fn assert_exact_pins() {
        for &(epsilon, p_h, k, pinned) in EXACT_PIN_CELLS {
            let cond = BernoulliCondition::new(epsilon, p_h).expect("pin parameters are valid");
            let p = ExactSettlement::new(cond).violation_probability(k);
            assert!(
                (p / pinned - 1.0).abs() < EXACT_PIN_RTOL,
                "margin DP drifted at ε={epsilon} p_h={p_h} k={k}: got {p:e}, pinned {pinned:e}"
            );
        }
    }

    /// Asserts the horizon-variant and finite-prefix pins: together with
    /// [`assert_exact_pins`] this freezes every public entry point of the
    /// exact DP against kernel drift at 1e-12.
    pub fn assert_horizon_and_prefix_pins() {
        for &(epsilon, p_h, k, horizon, pinned) in HORIZON_PIN_CELLS {
            let cond = BernoulliCondition::new(epsilon, p_h).expect("pin parameters are valid");
            let p = ExactSettlement::new(cond).violation_by_horizon(k, horizon);
            assert!(
                (p / pinned - 1.0).abs() < EXACT_PIN_RTOL,
                "violation_by_horizon drifted at ε={epsilon} p_h={p_h} k={k} horizon={horizon}: \
                 got {p:e}, pinned {pinned:e}"
            );
        }
        for &(epsilon, p_h, m, k, pinned) in FINITE_PREFIX_PIN_CELLS {
            let cond = BernoulliCondition::new(epsilon, p_h).expect("pin parameters are valid");
            let p = ExactSettlement::new(cond).violation_probabilities_finite_prefix(m, &[k])[0];
            assert!(
                (p / pinned - 1.0).abs() < EXACT_PIN_RTOL,
                "finite-prefix DP drifted at ε={epsilon} p_h={p_h} m={m} k={k}: \
                 got {p:e}, pinned {pinned:e}"
            );
        }
    }

    /// The horizons of [`TABLE1_BITWISE_PINS`], short enough for a debug
    /// build.
    pub const TABLE1_BITWISE_KS: [usize; 2] = [50, 100];

    /// Bitwise pins of the exact DP over every published Table-1
    /// condition, `(alpha, ratio, bits)`: `bits` are the `f64::to_bits`
    /// of `violation_probabilities(&TABLE1_BITWISE_KS)` (ratio-major, as
    /// in the paper), frozen from the scatter-form kernel before the
    /// gather rewrite. Unlike [`EXACT_PIN_CELLS`] (1e-12) they are
    /// compared exactly: every cell of the DP adds its contributions in a
    /// fixed order, so any reordering shows.
    pub const TABLE1_BITWISE_PINS: &[(f64, f64, [u64; 2])] = &[
        (0.01, 1.0, [0x3a55_0bac_8736_fd3f, 0x34e1_767c_9256_d420]),
        (0.10, 1.0, [0x3e13_ffe0_e744_15e3, 0x3c57_864b_0890_37e4]),
        (0.20, 1.0, [0x3f16_c405_227a_eda3, 0x3e58_7528_e714_9e5e]),
        (0.30, 1.0, [0x3f93_03f1_913f_86dc, 0x3f4a_39a0_1622_859a]),
        (0.40, 1.0, [0x3fd2_ad38_e383_9bb7, 0x3fc1_9815_8c12_e2dc]),
        (0.49, 1.0, [0x3fed_b1c2_0ec8_77d0, 0x3fec_f5b2_45c5_fb80]),
        (0.01, 0.9, [0x3a95_9d46_68f1_abee, 0x3557_56ad_d1ca_063a]),
        (0.10, 0.9, [0x3e20_d350_a4d1_3c9e, 0x3c6c_8904_6b2f_63ad]),
        (0.20, 0.9, [0x3f1c_6b51_183a_ac40, 0x3e61_6923_f696_bf81]),
        (0.30, 0.9, [0x3f95_012d_b55f_ea65, 0x3f4e_63c4_3271_0aa7]),
        (0.40, 0.9, [0x3fd3_5868_ac7a_ef79, 0x3fc2_7340_f678_6194]),
        (0.49, 0.9, [0x3fed_c56c_5565_214d, 0x3fed_0c9e_ee86_d0f9]),
        (0.01, 0.8, [0x3b01_004e_cf8d_3a44, 0x3622_0454_3440_0e2a]),
        (0.10, 0.8, [0x3e30_cbb2_ea4a_0567, 0x3c87_cd76_96a2_9b10]),
        (0.20, 0.8, [0x3f22_c82c_2b59_bf96, 0x3e6b_63ce_86b6_e24e]),
        (0.30, 0.8, [0x3f97_b5a5_bf6b_5cc6, 0x3f52_3bb1_f0f7_f1ce]),
        (0.40, 0.8, [0x3fd4_2b85_a42f_359d, 0x3fc3_888e_d0ee_a807]),
        (0.49, 0.8, [0x3fed_dc4f_6c39_ae1b, 0x3fed_2783_f10b_7ea4]),
        (0.01, 0.5, [0x3d17_db16_4900_2ee5, 0x3a43_009b_9705_5322]),
        (0.10, 0.5, [0x3e8c_2b9c_e210_21d9, 0x3d32_5ea1_ae3e_5974]),
        (0.20, 0.5, [0x3f44_1214_ab59_a1a4, 0x3ea4_d42c_c9da_b688]),
        (0.30, 0.5, [0x3fa5_419d_1c4d_5bc2, 0x3f66_ec36_7f72_0241]),
        (0.40, 0.5, [0x3fd8_5a20_e3bd_26c8, 0x3fc9_8289_8f66_a807]),
        (0.49, 0.5, [0x3fee_3e89_728c_9c0e, 0x3fed_9db7_ec50_88e8]),
        (0.01, 0.25, [0x3eb2_79da_6887_c715, 0x3d75_849b_3fdf_28cb]),
        (0.10, 0.25, [0x3f26_3b3e_392c_613f, 0x3e60_cc7b_f60e_ab5a]),
        (0.20, 0.25, [0x3f81_e417_434e_56d6, 0x3f17_6eab_e5db_cf14]),
        (0.30, 0.25, [0x3fbd_9cad_1b3d_a70e, 0x3f90_dc83_83c5_002c]),
        (0.40, 0.25, [0x3fe0_82a0_d62f_89c1, 0x3fd4_5121_0252_31de]),
        (0.49, 0.25, [0x3fee_d14d_5dff_8a59, 0x3fee_5796_d653_26d8]),
        (0.01, 0.01, [0x3fe3_a7d5_1afb_ac3f, 0x3fd8_2622_9f41_7082]),
        (0.10, 0.01, [0x3fe6_6604_b2df_66ff, 0x3fdf_6475_f30f_cbb8]),
        (0.20, 0.01, [0x3fe9_8520_8a87_87e9, 0x3fe4_67d4_f3e5_6abd]),
        (0.30, 0.01, [0x3fec_7644_4557_fc84, 0x3fe9_6da0_4f76_6a75]),
        (0.40, 0.01, [0x3fee_c7b8_80fd_f1e4, 0x3fed_c8ef_634f_48a8]),
        (0.49, 0.01, [0x3fef_ee15_02ae_169c, 0x3fef_e52d_5fcd_f8d4]),
    ];

    /// Asserts every [`TABLE1_BITWISE_PINS`] entry bit for bit.
    pub fn assert_table1_bitwise_pins() {
        for &(alpha, ratio, bits) in TABLE1_BITWISE_PINS {
            let exact = ExactSettlement::new(presets::table1_condition(alpha, ratio));
            let ps = exact.violation_probabilities(&TABLE1_BITWISE_KS);
            for ((p, pinned), k) in ps.iter().zip(bits).zip(TABLE1_BITWISE_KS) {
                assert_eq!(
                    p.to_bits(),
                    pinned,
                    "Table-1 DP drifted at α={alpha} ratio={ratio} k={k}: got {p:e}, pinned {:e}",
                    f64::from_bits(pinned)
                );
            }
        }
    }

    /// Frozen settled-slot counts of the canonical simulation presets:
    /// `(preset name, seed, k, |{s ∈ 1..=slots : (s, k) settled}|)`,
    /// computed through the indexed consistency layer and frozen at the
    /// PR-3 consistency-layer rebuild (which also fixed the Definition-3
    /// `t ≥ s + k` off-by-one and made leaders adopt their own minted
    /// block at mint time — these pins freeze the *fixed* dynamics; note
    /// the honest preset now shows a few small-`k` violations, the
    /// paper's concurrent-leader ambiguity, which instant-convergence
    /// hid before the fix). Any change to leader sampling, delivery
    /// scheduling, the longest-chain rule or the divergence index shows
    /// up here exactly.
    pub const SIM_SETTLED_PINS: &[(&str, u64, usize, usize)] = &[
        ("base", 1, 10, 498),
        ("base", 1, 20, 500),
        ("base", 2, 10, 490),
        ("base", 2, 20, 499),
        ("high_stake", 1, 10, 767),
        ("high_stake", 1, 20, 788),
        ("high_stake", 2, 10, 792),
        ("high_stake", 2, 20, 800),
        ("honest", 1, 10, 1998),
        ("honest", 1, 20, 2000),
        ("honest", 2, 10, 1995),
        ("honest", 2, 20, 2000),
    ];

    /// The preset config behind a [`SIM_SETTLED_PINS`] name.
    pub fn sim_pin_config(name: &str) -> SimConfig {
        match name {
            "base" => presets::base_sim(),
            "high_stake" => presets::high_stake_sim(),
            "honest" => presets::honest_sim(),
            other => panic!("unknown sim pin preset {other:?}"),
        }
    }

    /// Asserts every [`SIM_SETTLED_PINS`] entry reproduces its frozen
    /// settled-slot count through the batch sweep.
    pub fn assert_sim_settled_pins() {
        for &(name, seed, k, pinned) in SIM_SETTLED_PINS {
            let cfg = sim_pin_config(name);
            let sim = Simulation::run(&cfg, seed);
            let settled = cfg.slots - sim.count_violating_slots(k, cfg.slots);
            assert_eq!(
                settled, pinned,
                "settled-slot count drifted on preset {name:?} seed {seed} k {k}"
            );
        }
    }

    /// The condition behind the canonical-fork Monte-Carlo presets (the
    /// `astar` bench condition: ε = 0.2, p_h = 0.4).
    pub fn canonical_mc_condition() -> BernoulliCondition {
        BernoulliCondition::new(0.2, 0.4).expect("valid condition")
    }

    /// Frozen canonical-fork pins: `(seed, len, ρ(w), vertex count)` for
    /// strings sampled from [`canonical_mc_condition`] through the
    /// [`sample_strings`] fixture. The `A*` engine must reproduce these
    /// exactly — and the resulting forks must pass the full
    /// `is_canonical` check (Theorem 6) — so any drift in the
    /// incremental reach engine, the diverging-pair selection or the
    /// conservative-extension order shows up here.
    pub const CANONICAL_PINS: &[(u64, usize, i64, usize)] = &[
        (1, 40, 1, 84),
        (1, 60, 0, 155),
        (2, 60, 2, 190),
        (3, 120, 2, 220),
    ];

    /// Asserts every [`CANONICAL_PINS`] entry: the engine-built fork is
    /// canonical and reproduces its frozen `(ρ, vertices)` fingerprint,
    /// bit-identically to the definitional oracle.
    pub fn assert_canonical_pins() {
        use multihonest::adversary::{astar, is_canonical, OptimalAdversary};
        let cond = canonical_mc_condition();
        for &(seed, len, rho, vertices) in CANONICAL_PINS {
            let w = &super::sample_strings(&cond, seed, 1, len)[0];
            let fork = OptimalAdversary::build(w);
            assert_eq!(fork, astar::reference::build(w), "oracle drift on {w}");
            assert!(is_canonical(&fork), "A* fork not canonical for {w}");
            let ra = multihonest::fork::ReachAnalysis::new(&fork);
            assert_eq!(
                (ra.rho(), fork.vertex_count()),
                (rho, vertices),
                "canonical fingerprint drifted on seed {seed} len {len}"
            );
        }
    }

    /// Frozen [`CanonicalMonteCarlo`] summary pins:
    /// `(trials, seed, len, ρ agreements, max ρ, µ_ε(w) ≥ 0 trials)`.
    /// The driver's integer aggregates are exact and thread-count
    /// invariant, so these values are stable whatever the parallelism.
    ///
    /// [`CanonicalMonteCarlo`]: multihonest::adversary::CanonicalMonteCarlo
    pub const CANONICAL_MC_PINS: &[(u64, u64, usize, u64, i64, u64)] =
        &[(16, 5, 300, 16, 12, 0), (24, 9, 150, 24, 6, 2)];

    /// Asserts every [`CANONICAL_MC_PINS`] entry through the parallel
    /// driver.
    pub fn assert_canonical_mc_pins() {
        use multihonest::adversary::CanonicalMonteCarlo;
        let cond = canonical_mc_condition();
        for &(trials, seed, len, agreements, max_rho, nonneg) in CANONICAL_MC_PINS {
            let s = CanonicalMonteCarlo::new(cond, trials, seed).summary(len);
            assert_eq!(
                (s.rho_agreements, s.max_rho, s.nonneg_margin_trials),
                (agreements, max_rho, nonneg),
                "canonical MC summary drifted at trials {trials} seed {seed} len {len}"
            );
        }
    }

    /// Frozen **columnar-engine execution fingerprints**:
    /// `(scenario name, seed, slots, fingerprint)` over the scenario
    /// library presets, computed by
    /// [`execution_fingerprint`](multihonest::scenario::execution_fingerprint)
    /// (a SplitMix fold over the full tip trace, rollback record and
    /// headline metrics). The first entry pins a **10⁵-slot**
    /// withholding execution — the scenario engine's long-horizon
    /// regression: any drift in leader sampling, ring scheduling, the
    /// longest-chain rule, the Δ clamp or the divergence fold flips it.
    pub const SCENARIO_FINGERPRINT_PINS: &[(&str, u64, usize, u64)] = &[
        ("private-withholding", 1, 100_000, 0x02da_cf55_beea_4679),
        ("balance-attack", 2, 20_000, 0x41d6_8ae8_9d8c_3944),
        ("honest", 3, 20_000, 0xd7f0_7176_061e_7d3f),
        ("withholding-lag16", 1, 20_000, 0x1bc4_815f_db6d_c38d),
        ("withholding-zipf-stake", 1, 20_000, 0x62bc_a0dd_482f_a7aa),
    ];

    /// Asserts every [`SCENARIO_FINGERPRINT_PINS`] entry: the columnar
    /// engine reproduces each frozen execution exactly.
    pub fn assert_scenario_fingerprints() {
        use multihonest::scenario::{execution_fingerprint, scenario_library, ColumnarSimulation};
        for &(name, seed, slots, pinned) in SCENARIO_FINGERPRINT_PINS {
            let lib = scenario_library(slots);
            let sc = lib
                .iter()
                .find(|s| s.name == name)
                .unwrap_or_else(|| panic!("unknown scenario pin {name:?}"));
            let mut strategy = sc.strategy();
            let schedule = sc.schedule(seed);
            let sim =
                ColumnarSimulation::run_with_schedule(&sc.config, &schedule, strategy.as_mut());
            assert_eq!(
                execution_fingerprint(&sim),
                pinned,
                "columnar execution drifted on scenario {name:?} seed {seed} slots {slots}"
            );
        }
    }

    /// Asserts the **empty fault plan is invisible**: every
    /// [`SCENARIO_FINGERPRINT_PINS`] execution routed through the
    /// fault-injection entry point with an empty [`FaultPlan`] reproduces
    /// the very same frozen fingerprint, and the degradation ledger stays
    /// all-zero. This is the bit-identity contract the fault layer must
    /// never break.
    ///
    /// [`FaultPlan`]: multihonest::sim::FaultPlan
    pub fn assert_empty_plan_is_invisible() {
        use multihonest::scenario::{execution_fingerprint, scenario_library, ColumnarSimulation};
        use multihonest::sim::FaultPlan;
        let empty = FaultPlan::new();
        for &(name, seed, slots, pinned) in SCENARIO_FINGERPRINT_PINS {
            let lib = scenario_library(slots);
            let sc = lib
                .iter()
                .find(|s| s.name == name)
                .unwrap_or_else(|| panic!("unknown scenario pin {name:?}"));
            let mut strategy = sc.strategy();
            let schedule = sc.schedule(seed);
            let (sim, ledger) = ColumnarSimulation::run_with_schedule_faults(
                &sc.config,
                &schedule,
                strategy.as_mut(),
                &empty,
            );
            assert_eq!(
                execution_fingerprint(&sim),
                pinned,
                "empty fault plan perturbed scenario {name:?} seed {seed} slots {slots}"
            );
            assert_eq!(ledger.deferred, 0, "{name}: empty plan deferred");
            assert_eq!(ledger.dropped, 0, "{name}: empty plan dropped");
            assert_eq!(ledger.worst_effective_delta, 0, "{name}");
            assert!(ledger.windows.is_empty(), "{name}: empty plan has windows");
        }
    }

    /// Frozen **fault-injection execution fingerprints**:
    /// `(fault scenario name, seed, slots, fingerprint, deferred)` over
    /// the fault library ([`fault_library`]) through the traced
    /// fault-injection entry point. Any drift in the delivery predicate,
    /// the parking/release order, the loss coin or the resync rule flips
    /// the fingerprint; the deferral count pins the ledger itself.
    ///
    /// [`fault_library`]: multihonest::scenario::fault_library
    pub const FAULT_SCENARIO_PINS: &[(&str, u64, usize, u64, u64)] = &[
        ("partition-halves", 1, 400, 0x1f32_851a_41ed_edd0, 10),
        ("eclipse-victim", 1, 400, 0xc0de_341f_553c_827f, 1),
        ("crash-recover", 2, 400, 0x4344_9c31_8dc6_3430, 2),
        ("crash-at-genesis", 12, 400, 0x5104_8e90_9223_ce20, 1),
        ("lossy-window", 7, 400, 0x9b02_681c_c6c7_1ca3, 10),
        ("compound-chain", 1, 400, 0x5aaa_3648_9903_6e4d, 10),
        ("partition-withholding", 10, 400, 0x2a26_00ef_7a76_9eb9, 5),
    ];

    /// Asserts every [`FAULT_SCENARIO_PINS`] entry: the fault-injection
    /// layer reproduces each frozen faulty execution exactly, on both
    /// engines.
    pub fn assert_fault_scenario_pins() {
        use multihonest::scenario::{execution_fingerprint, fault_library, ColumnarSimulation};
        for &(name, seed, slots, pinned, deferred) in FAULT_SCENARIO_PINS {
            let lib = fault_library(slots);
            let sc = lib
                .iter()
                .find(|s| s.name == name)
                .unwrap_or_else(|| panic!("unknown fault scenario pin {name:?}"));
            let mut strategy = sc.config.strategy.instantiate();
            let schedule = sc.schedule(seed);
            let (sim, ledger) = ColumnarSimulation::run_with_schedule_faults(
                &sc.config,
                &schedule,
                strategy.as_mut(),
                &sc.plan,
            );
            assert_eq!(
                execution_fingerprint(&sim),
                pinned,
                "faulty execution drifted on scenario {name:?} seed {seed} slots {slots}"
            );
            assert_eq!(
                ledger.deferred, deferred,
                "degradation ledger drifted on scenario {name:?}"
            );

            let mut ref_strategy = sc.config.strategy.instantiate();
            let ref_schedule = sc.reference_schedule(seed);
            let (_, ref_ledger) = multihonest::sim::Simulation::run_with_schedule_faults(
                &sc.config,
                ref_schedule,
                ref_strategy.as_mut(),
                &sc.plan,
            );
            assert_eq!(
                ref_ledger, ledger,
                "reference engine ledger diverged on scenario {name:?}"
            );
        }
    }

    /// Frozen **streaming-pipeline fingerprints**: `(scenario name,
    /// seed, slots, fingerprint)` over the scenario library, computed by
    /// [`streaming_validation_fingerprint`] — a SplitMix fold over the
    /// full margin channel (every `(slot, ρ, µ)` event the pipeline
    /// emits), the streamed fork's vertex count, the online Δ-axiom
    /// verdict and the final `(ρ, µ)`. The first entry pins a
    /// **10⁵-slot** withholding execution validated and margin-tracked
    /// entirely online: any drift in the [`ForkFold`] event order, the
    /// Fenwick (F4Δ) checks, the streaming reduction `ρ_Δ` or the margin
    /// recurrence flips it.
    ///
    /// [`ForkFold`]: multihonest::fork::ForkFold
    /// [`streaming_validation_fingerprint`]: streaming_validation_fingerprint
    pub const STREAMING_VALIDATION_PINS: &[(&str, u64, usize, u64)] = &[
        ("private-withholding", 1, 100_000, 0x87ed_c81c_9b2b_7eb9),
        ("balance-attack", 2, 20_000, 0x6ac6_5663_45d6_1b5e),
        ("withholding-lag16", 1, 20_000, 0x7313_596e_80c2_d096),
    ];

    /// The SplitMix-style step the streaming pins fold with.
    #[inline]
    fn mix(h: u64, v: u64) -> u64 {
        let mut z = h ^ v.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A sink that folds every callback it receives, tagged by kind and
    /// in arrival order, into one word: a reordered, dropped or
    /// mis-valued event flips it.
    struct EventSink(u64);

    impl EventSink {
        fn event(&mut self, tag: u64, fields: [u64; 4]) {
            self.0 = fields.iter().fold(mix(self.0, tag), |h, &f| mix(h, f));
        }
    }

    impl multihonest::sim::MetricsSink for EventSink {
        fn on_rollback(&mut self, slot: usize, old_height: usize, new_height: usize) {
            self.event(1, [slot as u64, old_height as u64, new_height as u64, 0]);
        }
        fn on_slot(&mut self, slot: usize, tips: usize, height: usize, divergence: usize) {
            self.event(
                2,
                [slot as u64, tips as u64, height as u64, divergence as u64],
            );
        }
        fn on_margin(&mut self, slot: usize, rho: i64, margin: i64) {
            self.event(3, [slot as u64, rho as u64, margin as u64, 0]);
        }
        fn on_fault_deferral(&mut self, slot: usize, recipient: usize, deferred_to: usize) {
            self.event(4, [slot as u64, recipient as u64, deferred_to as u64, 0]);
        }
    }

    /// Runs the named scenario preset through [`run_streaming_validated`],
    /// streaming its events into `sink`.
    ///
    /// [`run_streaming_validated`]: multihonest::scenario::run_streaming_validated
    fn run_validated_preset<S: multihonest::sim::MetricsSink + Send>(
        name: &str,
        seed: u64,
        slots: usize,
        sink: &mut S,
    ) -> multihonest::scenario::ValidatedExecution {
        use multihonest::scenario::{run_streaming_validated, scenario_library};
        let lib = scenario_library(slots);
        let sc = lib
            .iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("unknown streaming pin scenario {name:?}"));
        let mut strategy = sc.strategy();
        let schedule = sc.schedule(seed);
        run_streaming_validated(&sc.config, &schedule, strategy.as_mut(), sink)
    }

    /// Runs the named scenario preset through the streaming fork pipeline
    /// ([`run_streaming_validated`]) and folds its outputs into one word
    /// (see [`STREAMING_VALIDATION_PINS`]).
    ///
    /// [`run_streaming_validated`]: multihonest::scenario::run_streaming_validated
    pub fn streaming_validation_fingerprint(name: &str, seed: u64, slots: usize) -> u64 {
        use multihonest::sim::MetricsSink;
        struct FpSink(u64);
        impl MetricsSink for FpSink {
            fn on_margin(&mut self, slot: usize, rho: i64, margin: i64) {
                self.0 = mix(mix(mix(self.0, slot as u64), rho as u64), margin as u64);
            }
        }
        let mut sink = FpSink(0);
        let out = run_validated_preset(name, seed, slots, &mut sink);
        let mut h = sink.0;
        h = mix(h, out.pipeline.fork.vertex_count() as u64);
        h = mix(h, u64::from(out.pipeline.validation.is_ok()));
        h = mix(h, out.pipeline.rho as u64);
        h = mix(h, out.pipeline.margin as u64);
        h = mix(h, out.metrics.final_height as u64);
        h
    }

    /// Asserts every [`STREAMING_VALIDATION_PINS`] entry: the streaming
    /// fork pipeline reproduces each frozen online-validated execution
    /// exactly.
    pub fn assert_streaming_validation_pins() {
        for &(name, seed, slots, pinned) in STREAMING_VALIDATION_PINS {
            assert_eq!(
                streaming_validation_fingerprint(name, seed, slots),
                pinned,
                "streaming pipeline drifted on scenario {name:?} seed {seed} slots {slots}"
            );
        }
    }

    /// Frozen **streaming-fork structure pin**: `(scenario name, seed,
    /// slots, fingerprint)` computed by [`streaming_fork_fingerprint`].
    /// Where [`STREAMING_VALIDATION_PINS`] sees only the margin channel
    /// and the fork's size, this one digests every vertex's `(parent,
    /// label)` and the interleaved `on_slot` / `on_rollback` /
    /// `on_margin` event stream, so a fork of the right size with wrong
    /// parents, or a margin event fired in a different slot-end, flips
    /// it.
    pub const STREAMING_FORK_PIN: (&str, u64, usize, u64) =
        ("private-withholding", 1, 100_000, 0x2afb_a427_9aa1_4416);

    /// Runs the named scenario preset through [`run_streaming_validated`]
    /// and folds the tagged sink event stream, every fork vertex's
    /// `(parent, label)` in id order, the verdict and the final `(ρ, µ)`
    /// into one word (see [`STREAMING_FORK_PIN`]).
    ///
    /// [`run_streaming_validated`]: multihonest::scenario::run_streaming_validated
    pub fn streaming_fork_fingerprint(name: &str, seed: u64, slots: usize) -> u64 {
        let mut sink = EventSink(0);
        let out = run_validated_preset(name, seed, slots, &mut sink);
        let fork = &out.pipeline.fork;
        let mut h = sink.0;
        for v in fork.vertices().skip(1) {
            let parent = fork.parent(v).expect("non-root vertex").index();
            h = mix(mix(h, parent as u64), fork.label(v) as u64);
        }
        h = mix(h, fork.vertex_count() as u64);
        h = mix(h, u64::from(out.pipeline.validation.is_ok()));
        h = mix(h, out.pipeline.rho as u64);
        h = mix(h, out.pipeline.margin as u64);
        h
    }

    /// Asserts [`STREAMING_FORK_PIN`]: the streamed fork's structure and
    /// the interleaved sink event stream reproduce exactly.
    pub fn assert_streaming_fork_pin() {
        let (name, seed, slots, pinned) = STREAMING_FORK_PIN;
        assert_eq!(
            streaming_fork_fingerprint(name, seed, slots),
            pinned,
            "streamed fork or event stream drifted on scenario {name:?} seed {seed} slots {slots}"
        );
    }

    /// Frozen **kernel sink-stream pins**: `(preset name, seed, slots,
    /// fingerprint)` computed by [`sink_stream_fingerprint`]. Covers every
    /// [`FAULT_SCENARIO_PINS`] preset (faulty runs: no passive
    /// short-circuit, `on_fault_deferral` interleaved with `on_slot` and
    /// `on_rollback`) plus the non-withholding `balance-attack` and
    /// `honest` presets of [`SCENARIO_FINGERPRINT_PINS`], with the same
    /// seeds and slot counts. The traced fingerprints see only the tip
    /// trace and end-of-run metrics; these see every streamed observation
    /// in the order the kernel emits it.
    pub const SINK_STREAM_PINS: &[(&str, u64, usize, u64)] = &[
        ("partition-halves", 1, 400, 0x14ac_5bd5_e217_8135),
        ("eclipse-victim", 1, 400, 0xe678_abb6_4463_471d),
        ("crash-recover", 2, 400, 0x8e01_1534_2b92_bc8e),
        ("crash-at-genesis", 12, 400, 0x9b3d_ecaa_eb1c_90d0),
        ("lossy-window", 7, 400, 0x15a5_8d71_7298_86e2),
        ("compound-chain", 1, 400, 0x448c_477d_5283_1703),
        ("partition-withholding", 10, 400, 0x011b_54ee_0e74_d0f6),
        ("balance-attack", 2, 20_000, 0x83ac_1a1e_24e0_1a0d),
        ("honest", 3, 20_000, 0x3ba6_d3cf_c817_4708),
    ];

    /// Runs the named preset — a [`fault_library`] entry under its plan,
    /// else a [`scenario_library`] entry under the empty plan — through
    /// [`run_streaming_faults_in`] on a fresh arena, and folds the tagged
    /// sink event stream, the end-of-run metrics and the deferral count
    /// into one word (see [`SINK_STREAM_PINS`]).
    ///
    /// [`fault_library`]: multihonest::scenario::fault_library
    /// [`scenario_library`]: multihonest::scenario::scenario_library
    /// [`run_streaming_faults_in`]: multihonest::scenario::ColumnarSimulation::run_streaming_faults_in
    pub fn sink_stream_fingerprint(name: &str, seed: u64, slots: usize) -> u64 {
        use multihonest::scenario::{
            fault_library, scenario_library, ColumnarSimulation, ExecutionArena,
        };
        use multihonest::sim::FaultPlan;
        let (config, mut strategy, schedule, plan) =
            match fault_library(slots).into_iter().find(|s| s.name == name) {
                Some(sc) => (
                    sc.config,
                    sc.config.strategy.instantiate(),
                    sc.schedule(seed),
                    sc.plan,
                ),
                None => {
                    let sc = scenario_library(slots)
                        .into_iter()
                        .find(|s| s.name == name)
                        .unwrap_or_else(|| panic!("unknown sink-stream pin preset {name:?}"));
                    (
                        sc.config,
                        sc.strategy(),
                        sc.schedule(seed),
                        FaultPlan::new(),
                    )
                }
            };
        let mut sink = EventSink(0);
        let (m, divergence, ledger) = ColumnarSimulation::run_streaming_faults_in(
            &mut ExecutionArena::new(),
            &config,
            &schedule,
            strategy.as_mut(),
            &plan,
            &mut sink,
        );
        let mut h = sink.0;
        for v in [
            m.final_height,
            m.chain_blocks,
            m.honest_chain_blocks,
            m.max_slot_divergence,
            m.rollback_count,
        ] {
            h = mix(h, v as u64);
        }
        h = mix(h, m.max_settlement_lag.map_or(u64::MAX, |l| l as u64));
        h = mix(h, divergence.count_violations(16, slots) as u64);
        mix(h, ledger.deferred)
    }

    /// Asserts every [`SINK_STREAM_PINS`] entry: the streaming kernel
    /// emits each frozen sink event stream exactly.
    pub fn assert_sink_stream_pins() {
        for &(name, seed, slots, pinned) in SINK_STREAM_PINS {
            assert_eq!(
                sink_stream_fingerprint(name, seed, slots),
                pinned,
                "kernel sink stream drifted on preset {name:?} seed {seed} slots {slots}"
            );
        }
    }

    /// The frozen campaign-pin spec: a 4-cell sweep small enough for
    /// tier-1 but crossing both stake profiles, a withholding strategy
    /// and a non-zero Δ. The fault axis is the degenerate `[None]`, which
    /// keeps cell indices and trial seeds identical to the pre-fault-axis
    /// grid — [`CAMPAIGN_AGGREGATE_PINS`] froze before the axis existed
    /// and must keep reproducing.
    pub fn campaign_pin_spec() -> multihonest::sweep::CampaignSpec {
        use multihonest::sweep::{CampaignSpec, FaultProfile, StakeProfile, SweepStrategy};
        CampaignSpec {
            strategies: vec![
                SweepStrategy::Honest,
                SweepStrategy::Withholding { release_lag: 4 },
            ],
            deltas: vec![2],
            profiles: vec![StakeProfile::Uniform, StakeProfile::Zipf],
            honest_nodes: 8,
            adversarial_stake: 0.3,
            active_slot_coeff: 0.25,
            tie_break: multihonest::sim::TieBreak::AdversarialOrder,
            slots: 150,
            trials_per_cell: 8,
            ks: vec![8, 24],
            seed: 77,
            faults: vec![FaultProfile::None],
        }
    }

    /// Frozen **campaign aggregate fingerprints**: `(cell index,
    /// CellAggregate fingerprint)` of [`campaign_pin_spec`], preceded by
    /// the pinned spec fingerprint. The per-cell value is an
    /// order-invariant SplitMix fold over every trial's seed, violating
    /// anchors and headline metrics, so any drift in seed sharding, the
    /// columnar engine, the arena reset path or the settlement index
    /// flips it — whatever the thread count used to run the campaign.
    pub const CAMPAIGN_SPEC_PIN: u64 = 0x579f_a6fc_7629_60c6;
    /// See [`CAMPAIGN_SPEC_PIN`].
    pub const CAMPAIGN_AGGREGATE_PINS: &[(u64, u64)] = &[
        (0, 0x31d1_5ec1_1d19_b71b),
        (1, 0xae42_3cae_7b33_811f),
        (2, 0xf163_9ac6_4b2c_f756),
        (3, 0xfb67_d467_6760_c1ac),
    ];

    /// Asserts every [`CAMPAIGN_AGGREGATE_PINS`] entry through the
    /// work-stealing executor (2 workers, so the claim order differs
    /// from the single-threaded pin run that froze the values).
    pub fn assert_campaign_pins() {
        use multihonest::sweep::{run_campaign, RunOptions};
        let spec = campaign_pin_spec();
        assert_eq!(
            spec.fingerprint(),
            CAMPAIGN_SPEC_PIN,
            "campaign pin spec drifted (grid or parameter change)"
        );
        let outcome = run_campaign(
            &spec,
            &RunOptions {
                threads: 2,
                checkpoint: None,
                stop_after_cells: None,
            },
        )
        .expect("no checkpoint involved");
        assert!(outcome.is_complete());
        for &(cell, pinned) in CAMPAIGN_AGGREGATE_PINS {
            let agg = outcome.aggregates[cell as usize]
                .as_ref()
                .expect("complete campaign");
            assert_eq!(
                agg.fingerprint, pinned,
                "campaign aggregate drifted at cell {cell}"
            );
        }
    }

    /// Asserts every golden cell within relative tolerance `rtol`.
    pub fn assert_cells_match(cells: &[GoldenCell], rtol: f64) {
        for &(alpha, ratio, k, expected) in cells {
            let p = table1_cell(alpha, ratio, k);
            assert!(
                (p / expected - 1.0).abs() < rtol,
                "Table 1 cell α={alpha} ratio={ratio} k={k}: got {p:e}, want {expected:e} (rtol {rtol})"
            );
        }
    }
}

/// Cross-crate invariant assertions — the laws the paper proves, phrased so
/// any test or bench can enforce them on arbitrary inputs.
pub mod invariants {
    use super::*;
    use multihonest::fork::Fork;

    /// Axiom conformance: the fork passes validation (fork axioms A1–A5).
    pub fn assert_axiom_conformant(fork: &Fork) {
        if let Err(e) = fork.validate() {
            panic!("fork violates the fork axioms: {e:?}");
        }
    }

    /// Margin dominance (Theorem 5 / Proposition 1): the closed fork's
    /// definitional relative margins never exceed the recurrence optimum,
    /// at any cut.
    pub fn assert_margins_dominated(closed: &Fork, w: &CharString, context: &str) {
        let ra = ReachAnalysis::new(closed);
        let margins = ra.relative_margins();
        assert_eq!(
            margins.len(),
            w.len() + 1,
            "{context}: expected one relative margin per cut of {w}"
        );
        assert!(
            ra.rho() <= recurrence::rho(w),
            "{context}: reach {} exceeds recurrence ρ {}",
            ra.rho(),
            recurrence::rho(w)
        );
        for (cut, &margin) in margins.iter().enumerate() {
            assert!(
                margin <= recurrence::relative_margin(w, cut),
                "{context}: margin at cut {cut} of {w} exceeds recurrence"
            );
        }
    }

    /// Exact ≤ bound: the exact DP violation probability is dominated by
    /// the analytic Theorem-1 insecurity bound wherever the bound is
    /// nontrivial (< 1).
    pub fn assert_exact_below_bound(cond: &BernoulliCondition, ks: &[usize]) {
        let exact = ExactSettlement::new(*cond);
        for &k in ks {
            let p = exact.violation_probability(k);
            let bound = multihonest::analytic::settlement_insecurity_bound(
                cond.epsilon(),
                cond.p_unique_honest(),
                k,
            )
            .expect("condition parameters are valid for Theorem 1");
            if bound < 1.0 {
                assert!(
                    p <= bound * (1.0 + 1e-9),
                    "exact {p:e} exceeds analytic bound {bound:e} at k={k} for {cond:?}"
                );
            }
        }
    }
}
