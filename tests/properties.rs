//! Property-based tests over the core data structures and invariants:
//! the LP solver, the billing rules, the spot traces and the storage layer.

use conductor_cloud::{BillingAccount, Catalog, SpotMarket, SpotTrace, TraceKind};
use conductor_lp::{
    ConstraintOp, Engine, LpError, Problem, Sense, Solution, SolveContext, SolveOptions, SolveStats,
};
use conductor_storage::{BlockKey, FileSystemShim, InMemoryBackend, StorageClient};
use proptest::prelude::*;

/// Builds a random bounded knapsack-style MIP from flat coefficient vectors
/// (always feasible: the origin satisfies every `<=` capacity row).
fn random_mip(values: &[f64], weights: &[f64], capacities: &[f64]) -> Problem {
    let n = values.len().min(weights.len()).max(1);
    let mut p = Problem::new("rand-mip", Sense::Maximize);
    let vars: Vec<_> = (0..n)
        .map(|i| p.add_int_var(format!("x{i}"), 0.0, 4.0))
        .collect();
    p.set_objective(vars.iter().zip(values).map(|(&v, &c)| (v, c)));
    for (k, &cap) in capacities.iter().enumerate() {
        p.add_constraint(
            format!("cap{k}"),
            vars.iter()
                .enumerate()
                .map(|(i, &v)| (v, weights[(i + k) % weights.len()].max(0.1))),
            ConstraintOp::Le,
            cap,
        );
    }
    p
}

/// Builds a *sparse* random MIP with the pathologies the revised engine must
/// survive: a controlled constraint density (each row touches only a random
/// subset of the variables), exact duplicated rows (degenerate ratio-test
/// ties), and variables with no upper bound (infinite span-row RHS).
///
/// The instance is feasible (the origin satisfies every `<=` row) and
/// bounded (every variable is forced into at least one capacity row with a
/// positive weight) by construction.
fn sparse_random_mip(
    values: &[f64],
    weights: &[f64],
    caps: &[f64],
    density: f64,
    density_seed: u64,
    unbounded_stride: usize,
    duplicate_row: bool,
) -> Problem {
    let n = values.len();
    let mut p = Problem::new("sparse-mip", Sense::Maximize);
    let vars: Vec<_> = (0..n)
        .map(|i| {
            // `unbounded_stride == 0` means every upper bound is finite.
            let upper = if unbounded_stride > 0 && i % unbounded_stride == 0 {
                f64::INFINITY
            } else {
                4.0
            };
            p.add_int_var(format!("x{i}"), 0.0, upper)
        })
        .collect();
    p.set_objective(vars.iter().zip(values).map(|(&v, &c)| (v, c)));
    // Deterministic xorshift so the sparsity pattern is a pure function of
    // the generated seed (reproducible across engines and reruns).
    let mut state = density_seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for (k, &cap) in caps.iter().enumerate() {
        let mut terms: Vec<(conductor_lp::VarId, f64)> = Vec::new();
        for (i, &v) in vars.iter().enumerate() {
            // Coverage guarantee: variable i always appears in row i % rows.
            let forced = i % caps.len() == k;
            let draw = (next() % 1000) as f64 / 1000.0;
            if forced || draw < density {
                terms.push((v, weights[(i + k) % weights.len()].max(0.1)));
            }
        }
        p.add_constraint(format!("cap{k}"), terms.clone(), ConstraintOp::Le, cap);
        if duplicate_row && k == 0 {
            // An exact duplicate row: every engine's ratio test faces the
            // same degenerate tie and must break it to the same optimum.
            p.add_constraint("cap0-dup", terms, ConstraintOp::Le, cap);
        }
    }
    p
}

/// Builds a doubly-bounded MIP: every integer variable carries a nonzero
/// lower bound *and* a finite upper bound (the production engine handles
/// both implicitly, as column bounds), plus `free_vars` free continuous
/// variables that only the constraint rows keep in check. With no `caps`
/// the instance is box-only: zero constraint rows and no free variables.
fn doubly_bounded_mip(
    values: &[f64],
    lows: &[usize],
    spans: &[usize],
    caps: &[f64],
    free_vars: usize,
) -> Problem {
    let n = values.len().min(lows.len()).min(spans.len()).max(1);
    let free_vars = if caps.is_empty() { 0 } else { free_vars };
    let mut p = Problem::new("dbl-mip", Sense::Maximize);
    let mut lo_mass = 0.0;
    let ints: Vec<_> = (0..n)
        .map(|i| {
            let lo = lows[i] as f64;
            lo_mass += lo;
            p.add_int_var(format!("x{i}"), lo, lo + 1.0 + spans[i] as f64)
        })
        .collect();
    let frees: Vec<_> = (0..free_vars)
        .map(|i| p.add_var(format!("f{i}"), f64::NEG_INFINITY, f64::INFINITY))
        .collect();
    p.set_objective(
        ints.iter()
            .zip(values)
            .map(|(&v, &c)| (v, c))
            // Distinct coefficients keep the optimal free split unique.
            .chain(
                frees
                    .iter()
                    .enumerate()
                    .map(|(i, &v)| (v, 1.5 + 0.25 * i as f64)),
            ),
    );
    for (k, &cap) in caps.iter().enumerate() {
        // Offset by the lower-bound mass so x = lower, f = 0 stays feasible.
        p.add_constraint(
            format!("cap{k}"),
            ints.iter()
                .enumerate()
                .map(|(i, &v)| (v, 1.0 + ((i + k) % 3) as f64))
                .chain(frees.iter().enumerate().map(|(i, &v)| (v, 1.0 + i as f64))),
            ConstraintOp::Le,
            3.0 * lo_mass + cap,
        );
    }
    // A floor per free variable: a `>=` row with negative RHS, exercising
    // the Ge path alongside the implicit column bounds.
    for (i, &f) in frees.iter().enumerate() {
        p.add_constraint(format!("floor{i}"), [(f, 1.0)], ConstraintOp::Ge, -5.0);
    }
    p
}

/// The solver configurations the cross-engine battery exercises: the seed
/// oracle and the production engine on its warm and its cold path.
fn engine_configs() -> Vec<(String, SolveOptions)> {
    let with = |engine: Engine, warm_start: bool| SolveOptions {
        engine,
        warm_start,
        ..Default::default()
    };
    vec![
        ("seed".into(), with(Engine::SeedBaseline, false)),
        ("production-warm".into(), with(Engine::RevisedSparse, true)),
        ("production-cold".into(), with(Engine::RevisedSparse, false)),
    ]
}

/// Everything a solve reports except the wall-clock time, as bits.
fn solve_fingerprint(r: &Result<Solution, LpError>) -> String {
    match r {
        Ok(sol) => {
            let stats = SolveStats {
                solve_time: Default::default(),
                ..*sol.stats()
            };
            let values: Vec<u64> = sol.values().iter().map(|v| v.to_bits()).collect();
            format!(
                "{:?} {} {values:?} {stats:?}",
                sol.status(),
                sol.objective().to_bits()
            )
        }
        Err(e) => format!("{e:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// For any bounded-variable LP `max c·x  s.t. x_i <= u_i`, the optimum is
    /// attained at the upper bounds of the profitable variables.
    #[test]
    fn lp_box_maximization_hits_upper_bounds(
        coeffs in proptest::collection::vec(-5.0f64..5.0, 1..6),
        bounds in proptest::collection::vec(0.1f64..10.0, 1..6),
    ) {
        let n = coeffs.len().min(bounds.len());
        let mut p = Problem::new("box", Sense::Maximize);
        let vars: Vec<_> =
            (0..n).map(|i| p.add_var(format!("x{i}"), 0.0, bounds[i])).collect();
        p.set_objective(vars.iter().zip(&coeffs).map(|(&v, &c)| (v, c)));
        let sol = p.solve().unwrap();
        let expected: f64 =
            (0..n).map(|i| if coeffs[i] > 0.0 { coeffs[i] * bounds[i] } else { 0.0 }).sum();
        prop_assert!((sol.objective() - expected).abs() < 1e-6,
            "objective {} vs expected {expected}", sol.objective());
    }

    /// The solver never returns a solution that violates its own constraints.
    #[test]
    fn lp_solutions_are_feasible(
        a in proptest::collection::vec(0.1f64..4.0, 4),
        rhs in proptest::collection::vec(1.0f64..20.0, 2),
        costs in proptest::collection::vec(0.1f64..5.0, 2),
    ) {
        let mut p = Problem::new("feas", Sense::Minimize);
        let x = p.add_var("x", 0.0, f64::INFINITY);
        let y = p.add_var("y", 0.0, f64::INFINITY);
        p.set_objective([(x, costs[0]), (y, costs[1])]);
        p.add_constraint("c0", [(x, a[0]), (y, a[1])], ConstraintOp::Ge, rhs[0]);
        p.add_constraint("c1", [(x, a[2]), (y, a[3])], ConstraintOp::Ge, rhs[1]);
        let sol = p.solve().unwrap();
        let (xv, yv) = (sol.value(x), sol.value(y));
        prop_assert!(xv >= -1e-9 && yv >= -1e-9);
        prop_assert!(a[0] * xv + a[1] * yv >= rhs[0] - 1e-6);
        prop_assert!(a[2] * xv + a[3] * yv >= rhs[1] - 1e-6);
    }

    /// Integer solutions are integral and never better than the LP relaxation.
    #[test]
    fn mip_respects_integrality_and_relaxation_bound(
        weights in proptest::collection::vec(1.0f64..10.0, 3),
        values in proptest::collection::vec(1.0f64..10.0, 3),
        capacity in 5.0f64..25.0,
    ) {
        let build = |integer: bool| {
            let mut p = Problem::new("knap", Sense::Maximize);
            let vars: Vec<_> = (0..3)
                .map(|i| if integer {
                    p.add_int_var(format!("x{i}"), 0.0, 3.0)
                } else {
                    p.add_var(format!("x{i}"), 0.0, 3.0)
                })
                .collect();
            p.set_objective(vars.iter().zip(&values).map(|(&v, &c)| (v, c)));
            p.add_constraint(
                "cap",
                vars.iter().zip(&weights).map(|(&v, &w)| (v, w)),
                ConstraintOp::Le,
                capacity,
            );
            (p, vars)
        };
        let (relaxed, _) = build(false);
        let lp = relaxed.solve().unwrap().objective();
        let (integral, vars) = build(true);
        let sol = integral.solve().unwrap();
        for v in vars {
            let x = sol.value(v);
            prop_assert!((x - x.round()).abs() < 1e-6, "non-integral {x}");
        }
        prop_assert!(sol.objective() <= lp + 1e-6);
    }

    /// The seed oracle and the production engine (on both its warm and its
    /// cold path) reach the same objective within the configured relative
    /// gap on randomized MIPs.
    #[test]
    fn warm_cold_and_seed_solvers_agree_on_random_mips(
        values in proptest::collection::vec(0.5f64..9.5, 2..7),
        weights in proptest::collection::vec(0.2f64..4.0, 2..7),
        capacities in proptest::collection::vec(3.0f64..20.0, 1..4),
    ) {
        let p = random_mip(&values, &weights, &capacities);
        let gap = 0.01;
        let reference = p.solve_with(&SolveOptions { relative_gap: gap, ..Default::default() }).unwrap();
        let scale = reference.objective().abs().max(1.0);
        let tol = 2.0 * gap * scale + 1e-6;
        for (label, base) in engine_configs() {
            let sol = p
                .solve_with(&SolveOptions { relative_gap: gap, ..base })
                .unwrap();
            prop_assert!((sol.objective() - reference.objective()).abs() <= tol,
                "{label} {} vs reference {}", sol.objective(), reference.objective());
            for (i, v) in sol.values().iter().enumerate() {
                prop_assert!((v - v.round()).abs() < 1e-6, "{label}: x{i} = {v} not integral");
            }
        }
    }

    /// Cross-engine equivalence battery on *sparse* MIPs (controlled
    /// density, degenerate duplicated rows, unbounded upper bounds): the
    /// seed oracle and the production engine — warm and cold paths both —
    /// must agree on status, on the objective to 1e-6 (all solve to a zero
    /// gap) and on the integer assignment itself.
    #[test]
    fn engine_battery_agrees_on_sparse_mips(
        values in proptest::collection::vec(0.5f64..9.5, 3..9),
        weights in proptest::collection::vec(0.2f64..4.0, 3..9),
        caps in proptest::collection::vec(4.0f64..25.0, 1..4),
        density in 0.15f64..0.95,
        density_seed in 1u64..1_000_000_000,
        unbounded_stride in 0usize..4,
        duplicate_row in any::<bool>(),
    ) {
        let n = values.len().min(weights.len());
        let p = sparse_random_mip(
            &values[..n], &weights[..n], &caps, density, density_seed,
            unbounded_stride, duplicate_row,
        );
        let mut reference: Option<(String, f64, Vec<f64>)> = None;
        for (label, base) in engine_configs() {
            let sol = p
                .solve_with(&SolveOptions { relative_gap: 0.0, ..base })
                .unwrap_or_else(|e| panic!("{label} failed: {e:?}"));
            for (i, v) in sol.values().iter().enumerate() {
                prop_assert!((v - v.round()).abs() < 1e-6, "{label}: x{i} = {v} not integral");
            }
            match &reference {
                None => reference = Some((label, sol.objective(), sol.values().to_vec())),
                Some((ref_label, obj, vals)) => {
                    prop_assert!(
                        (sol.objective() - obj).abs() <= 1e-6 * (1.0 + obj.abs()),
                        "{label} objective {} vs {ref_label} {}",
                        sol.objective(), obj
                    );
                    for (i, (a, b)) in sol.values().iter().zip(vals).enumerate() {
                        prop_assert!((a - b).abs() < 1e-4,
                            "{label} assignment x{i} = {a} vs {ref_label} {b}");
                    }
                }
            }
        }
    }

    /// The same cross-engine battery on doubly-bounded, free-variable-heavy
    /// and box-only instances — the shapes the implicit column bounds
    /// rewrite most aggressively (every integer variable's two finite
    /// bounds become one column bound; free variables stay split; a
    /// box-only instance has no constraint row at all). Status, objective
    /// and assignment must agree across every configuration.
    #[test]
    fn engine_battery_agrees_on_doubly_bounded_mips(
        values in proptest::collection::vec(0.5f64..9.5, 2..7),
        lows in proptest::collection::vec(0usize..4, 2..7),
        spans in proptest::collection::vec(0usize..4, 2..7),
        caps in proptest::collection::vec(4.0f64..25.0, 0..4),
        free_vars in 0usize..3,
    ) {
        let p = doubly_bounded_mip(&values, &lows, &spans, &caps, free_vars);
        let mut reference: Option<(String, f64, Vec<f64>)> = None;
        for (label, base) in engine_configs() {
            let sol = p
                .solve_with(&SolveOptions { relative_gap: 0.0, ..base })
                .unwrap_or_else(|e| panic!("{label} failed: {e:?}"));
            let n_int = values.len().min(lows.len()).min(spans.len()).max(1);
            for (i, v) in sol.values().iter().take(n_int).enumerate() {
                prop_assert!((v - v.round()).abs() < 1e-6, "{label}: x{i} = {v} not integral");
            }
            match &reference {
                None => reference = Some((label, sol.objective(), sol.values().to_vec())),
                Some((ref_label, obj, vals)) => {
                    prop_assert!(
                        (sol.objective() - obj).abs() <= 1e-6 * (1.0 + obj.abs()),
                        "{label} objective {} vs {ref_label} {}",
                        sol.objective(), obj
                    );
                    for (i, (a, b)) in sol.values().iter().zip(vals).enumerate() {
                        prop_assert!((a - b).abs() < 1e-4,
                            "{label} assignment x{i} = {a} vs {ref_label} {b}");
                    }
                }
            }
        }
    }

    /// The same battery on instances that are infeasible — either at the LP
    /// level (contradictory bounds rows) or only at the MIP level (feasible
    /// relaxation, no integer point): every engine must agree on the status.
    #[test]
    fn engine_battery_agrees_on_infeasible_sparse_mips(
        n in 2usize..6,
        demand in 30.0f64..60.0,
        mip_level in any::<bool>(),
    ) {
        let mut p = Problem::new("inf-sparse", Sense::Maximize);
        let vars: Vec<_> = (0..n)
            .map(|i| p.add_int_var(format!("x{i}"), 0.0, 4.0))
            .collect();
        p.set_objective(vars.iter().map(|&v| (v, 1.0)));
        if mip_level {
            // Relaxation feasible (x0 = demand/31 after scaling) but no
            // integer point: 2·x0 = odd.
            p.add_constraint("odd", [(vars[0], 2.0)], ConstraintOp::Eq, 3.0);
        } else {
            // Max attainable lhs is 4n·1 < 24 < demand: LP-infeasible.
            p.add_constraint(
                "demand",
                vars.iter().map(|&v| (v, 1.0)),
                ConstraintOp::Ge,
                demand,
            );
        }
        for (label, base) in engine_configs() {
            let r = p.solve_with(&base);
            match r {
                Err(LpError::Infeasible) | Err(LpError::NoIncumbent) => {}
                other => panic!("{label}: expected infeasibility, got {other:?}"),
            }
        }
    }

    /// History-freedom: solving a random sequence of problems — sparse
    /// MIPs, box-only (zero-row) MIPs and LPs, and infeasible instances —
    /// through one shared context, with plan-cache probes interleaved,
    /// returns bit-for-bit what a fresh solve of each problem returns:
    /// objective, values, status, node count and every work counter.
    #[test]
    fn solve_with_context_is_bitwise_equal_to_solve(
        kinds in proptest::collection::vec(0usize..4, 2..7),
        values in proptest::collection::vec(0.5f64..9.5, 4..7),
        weights in proptest::collection::vec(0.2f64..4.0, 4..7),
        caps in proptest::collection::vec(4.0f64..25.0, 1..3),
        lows in proptest::collection::vec(0usize..3, 4..7),
        probe in any::<bool>(),
    ) {
        let problems: Vec<Problem> = kinds
            .iter()
            .enumerate()
            .map(|(i, &kind)| {
                // Shift the data per position so look-alikes differ in
                // RHS and objective but keep their layout.
                let scaled: Vec<f64> = values.iter().map(|v| v + i as f64 * 0.25).collect();
                match kind {
                    0 => random_mip(&scaled, &weights, &caps),
                    1 => doubly_bounded_mip(&scaled, &lows, &lows, &[], 0),
                    2 => {
                        let mut lp = Problem::new("box-lp", Sense::Maximize);
                        let vars: Vec<_> = scaled
                            .iter()
                            .enumerate()
                            .map(|(j, _)| lp.add_var(format!("x{j}"), -1.0, 1.0 + j as f64))
                            .collect();
                        lp.set_objective(vars.iter().zip(&scaled).map(|(&v, &c)| (v, c - 5.0)));
                        lp
                    }
                    _ => {
                        // Relaxation feasible, no integer point.
                        let mut p = random_mip(&scaled, &weights, &caps);
                        let odd = p.add_int_var("odd", 0.0, 10.0);
                        p.add_constraint("odd", [(odd, 2.0)], ConstraintOp::Eq, 3.0);
                        p
                    }
                }
            })
            .collect();
        let opts = SolveOptions::default();
        let mut ctx = SolveContext::new();
        for (i, p) in problems.iter().enumerate() {
            if probe {
                let _ = ctx.relaxation_bound(p, opts.max_simplex_iterations);
            }
            let shared = solve_fingerprint(&p.solve_with_context(&opts, &mut ctx));
            let fresh = solve_fingerprint(&p.solve_with(&opts));
            prop_assert_eq!(shared, fresh, "problem {} (kind {})", i, kinds[i]);
        }
    }

    /// Crossed bound overrides (as produced by branching) are always reported
    /// as infeasible, never solved to a bogus optimum.
    #[test]
    fn crossed_bounds_are_infeasible(
        lo in 1.0f64..5.0,
        delta in 0.1f64..2.0,
    ) {
        let mut p = Problem::new("crossed", Sense::Minimize);
        let x = p.add_var("x", 0.0, 10.0);
        p.set_objective([(x, 1.0)]);
        let lower = vec![lo];
        let upper = vec![lo - delta];
        let r = conductor_lp::revised::solve_relaxation(&p, &lower, &upper, 1_000);
        prop_assert!(matches!(r, Err(LpError::Infeasible)));
    }

    /// EC2-style billing: rounded-up hours are never less than the exact
    /// hours, never more than one extra hour per session, and always at
    /// least one hour.
    #[test]
    fn billing_roundup_is_bounded(durations in proptest::collection::vec(0.01f64..9.0, 1..8)) {
        let catalog = Catalog::aws_july_2011();
        let large = catalog.instance("m1.large").unwrap();
        let mut acct = BillingAccount::new(catalog.transfer);
        let mut exact = 0.0;
        for &d in &durations {
            let s = acct.start_instance(large, 10.0);
            acct.stop_instance(s, 10.0 + d);
            exact += d;
        }
        let billed = acct.instance_hours("m1.large");
        prop_assert!(billed >= exact - 1e-9);
        prop_assert!(billed >= durations.len() as f64 * 1.0 - 1e-9);
        prop_assert!(billed <= exact + durations.len() as f64 + 1e-9);
    }

    /// Spot traces stay within their documented bands for any seed/length.
    #[test]
    fn spot_traces_stay_in_band(seed in 0u64..5000, hours in 24usize..24*20) {
        let aws = SpotTrace::aws_like(seed, hours);
        prop_assert_eq!(aws.len(), hours);
        for &p in aws.prices() {
            prop_assert!((0.15..=0.45).contains(&p));
        }
        let el = SpotTrace::electricity_like(seed, hours);
        for &p in el.prices() {
            prop_assert!((0.0..0.34).contains(&p));
        }
    }

    /// Running a spot instance never charges more than bid × hours, and an
    /// uninterrupted run completes exactly the requested hours.
    #[test]
    fn spot_run_cost_is_bounded_by_bid(
        seed in 0u64..1000,
        start in 0usize..200,
        hours in 1usize..20,
        bid in 0.15f64..0.45,
    ) {
        let market = SpotMarket::new(SpotTrace::aws_like(seed, 400), 0.34);
        let outcome = market.run_instance(start, hours, bid);
        prop_assert!(outcome.cost <= bid * outcome.hours_run as f64 + 1e-9);
        prop_assert!(outcome.hours_run <= hours);
        if !outcome.out_bid {
            prop_assert_eq!(outcome.hours_run, hours);
        }
    }

    /// Files written through the storage shim always read back identically,
    /// regardless of content or chunk size (round-trip invariant).
    #[test]
    fn storage_files_roundtrip(
        data in proptest::collection::vec(any::<u8>(), 0..4096),
        chunk in 1usize..512,
    ) {
        let mut client = StorageClient::new();
        client.add_backend(InMemoryBackend::local_disk(1), true);
        client.add_backend(InMemoryBackend::local_disk(2), false);
        client.add_backend(InMemoryBackend::object_store(3), false);
        let mut fs = FileSystemShim::with_chunk_size(client, chunk);
        fs.write_file("prop/file", &data).unwrap();
        let back = fs.read_file("prop/file").unwrap();
        prop_assert_eq!(back, data);
    }

    /// Every block written through the client keeps at least one readable
    /// replica after any single backend is removed (3-way replication over
    /// three or more backends).
    #[test]
    fn storage_survives_single_backend_loss(
        payload in proptest::collection::vec(any::<u8>(), 1..512),
        victim in 0usize..3,
    ) {
        let mut client = StorageClient::new();
        let ids = [
            client.add_backend(InMemoryBackend::local_disk(1), true),
            client.add_backend(InMemoryBackend::local_disk(2), false),
            client.add_backend(InMemoryBackend::local_disk(3), false),
        ];
        let key = BlockKey::chunk("prop", 0);
        client.write(key.clone(), payload.clone()).unwrap();
        client.remove_backend(ids[victim]);
        prop_assert_eq!(client.read(&key).unwrap(), payload);
    }
}

/// Non-proptest sanity check that the trace generators are deterministic
/// (needed for reproducible figures).
#[test]
fn trace_generation_is_deterministic() {
    for kind in [TraceKind::AwsLike, TraceKind::ElectricityLike] {
        let make = || match kind {
            TraceKind::AwsLike => SpotTrace::aws_like(99, 240),
            TraceKind::ElectricityLike => SpotTrace::electricity_like(99, 240),
        };
        assert_eq!(make(), make());
    }
}
