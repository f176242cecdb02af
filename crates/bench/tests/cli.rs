//! Property coverage for the hardened CLI parser: over arbitrary
//! flag/value/positional interleavings, `flag_value` never hands a flag
//! back as a value, errors exactly when the grammar says it must, and
//! `positionals` partitions cleanly against the flags.

use multihonest_bench::cli::{flag_value, parsed_flag, positionals, reject_unknown_flags};
use proptest::prelude::*;

/// A small but adversarial token alphabet: value-taking flags, boolean
/// flags, plausible values, and things that look like values of the
/// wrong type.
fn arb_token() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("--seed".to_string()),
        Just("--threads".to_string()),
        Just("--out".to_string()),
        Just("--trace".to_string()),
        Just("--heartbeat".to_string()),
        Just("--quick".to_string()),
        Just("--json".to_string()),
        Just("bench-report".to_string()),
        Just("abc".to_string()),
        Just("out.json".to_string()),
        Just("trace.json".to_string()),
        (0u64..10_000).prop_map(|n| n.to_string()),
    ]
}

fn arb_args() -> impl Strategy<Value = Vec<String>> {
    prop::collection::vec(arb_token(), 0..=8)
}

const VALUE_FLAGS: [&str; 5] = ["--seed", "--threads", "--out", "--trace", "--heartbeat"];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    /// The bugfix property: whatever the interleaving, a returned value
    /// is never `--`-prefixed, and an error is returned exactly when the
    /// token after the flag's first occurrence is missing or a flag.
    #[test]
    fn values_are_never_flags(args in arb_args(), which in 0usize..5) {
        let flag = VALUE_FLAGS[which];
        let parsed = flag_value(&args, flag);
        match args.iter().position(|a| a == flag) {
            None => prop_assert_eq!(parsed, Ok(None)),
            Some(i) => match args.get(i + 1) {
                Some(v) if !v.starts_with("--") => {
                    prop_assert_eq!(parsed, Ok(Some(v.as_str())));
                }
                _ => prop_assert!(parsed.is_err(), "{flag} at {i} in {args:?}"),
            },
        }
    }

    /// Planting `flag value` into any argument vector that does not
    /// already mention the flag always parses back to exactly `value`.
    #[test]
    fn planted_flag_round_trips(
        base in arb_args(),
        at in 0usize..9,
        which in 0usize..5,
        value in 0u64..1_000_000,
    ) {
        let flag = VALUE_FLAGS[which];
        let mut args: Vec<String> = base.into_iter().filter(|a| a != flag).collect();
        let at = at.min(args.len());
        args.splice(at..at, [flag.to_string(), value.to_string()]);
        prop_assert_eq!(flag_value(&args, flag), Ok(Some(value.to_string().as_str())));
        prop_assert_eq!(parsed_flag::<u64>(&args, flag), Ok(Some(value)));
    }

    /// `parsed_flag` agrees with `flag_value` + `str::parse` everywhere.
    #[test]
    fn parsed_flag_matches_manual_parse(args in arb_args(), which in 0usize..5) {
        let flag = VALUE_FLAGS[which];
        let manual = match flag_value(&args, flag) {
            Err(_) => None,
            Ok(None) => Some(None),
            Ok(Some(v)) => v.parse::<u64>().ok().map(Some),
        };
        match (parsed_flag::<u64>(&args, flag), manual) {
            (Ok(got), Some(want)) => prop_assert_eq!(got, want),
            (Err(_), None) => {}
            (got, want) => prop_assert!(false, "{got:?} vs {want:?} on {args:?}"),
        }
    }

    /// `positionals` returns exactly the non-flag tokens that do not sit
    /// immediately after a value-taking flag, in order.
    #[test]
    fn positionals_partition_the_vector(args in arb_args()) {
        let pos = positionals(&args, &VALUE_FLAGS);
        let expected: Vec<&str> = args
            .iter()
            .enumerate()
            .filter(|(i, a)| {
                !a.starts_with("--")
                    && (*i == 0 || !VALUE_FLAGS.contains(&args[i - 1].as_str()))
            })
            .map(|(_, a)| a.as_str())
            .collect();
        prop_assert_eq!(pos.clone(), expected);
        for p in pos {
            prop_assert!(!p.starts_with("--"));
        }
    }

    /// The unknown-flag guard accepts exactly the vectors whose `--`
    /// tokens all come from the known set.
    #[test]
    fn unknown_flag_guard_is_exact(args in arb_args()) {
        let known = ["--seed", "--threads", "--out", "--quick"];
        let ok = reject_unknown_flags(&args, &known).is_ok();
        let expect = args
            .iter()
            .all(|a| !a.starts_with("--") || known.contains(&a.as_str()));
        prop_assert_eq!(ok, expect, "{:?}", args);
    }
}

/// `scenario horizon` rejects zero counts where they enter: exit 2 with
/// an error naming the flag, then the usage line, and never a panic.
#[test]
fn horizon_rejects_zero_counts() {
    for (flag, args) in [
        (
            "--segment",
            ["horizon", "--slots", "1000", "--segment", "0"],
        ),
        ("--slots", ["horizon", "--slots", "0", "--segment", "1024"]),
    ] {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_scenario"))
            .args(args)
            .output()
            .expect("run the scenario binary");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flag} 0: {stderr}");
        assert!(
            stderr.starts_with(&format!(
                "error: {flag} must be at least 1, found 0\nusage: "
            )),
            "{stderr}"
        );
        assert!(!stderr.contains("panicked"), "{stderr}");
        assert!(out.stdout.is_empty(), "{flag} 0 ran anyway");
    }
}

/// `table1`, `experiments`, `astar`, `settlement`, `scenario`, `sweep`,
/// `faults` and `forkflow` reject unknown flags, unknown positional
/// arguments and zero counts before doing any work, and `table1`,
/// `astar` and `settlement` reject `--out` outside `bench-report` (the
/// only mode that writes a file): exit 2 with an error naming the
/// offending token, then the usage line, and never a panic.
#[test]
fn table1_and_experiments_reject_malformed_command_lines() {
    let table1 = env!("CARGO_BIN_EXE_table1");
    let experiments = env!("CARGO_BIN_EXE_experiments");
    let astar = env!("CARGO_BIN_EXE_astar");
    let settlement = env!("CARGO_BIN_EXE_settlement");
    let scenario = env!("CARGO_BIN_EXE_scenario");
    let sweep = env!("CARGO_BIN_EXE_sweep");
    let faults = env!("CARGO_BIN_EXE_faults");
    let forkflow = env!("CARGO_BIN_EXE_forkflow");
    for (bin, args, error) in [
        (table1, &["--bogus"][..], "unknown flag '--bogus'"),
        (
            table1,
            &["--quick", "--threads", "0"][..],
            "--threads must be at least 1, found 0",
        ),
        (
            table1,
            &["--quick", "bogus"][..],
            "unknown argument 'bogus'",
        ),
        (
            table1,
            &["--quick", "--out", "t.json"][..],
            "--out is only valid with bench-report",
        ),
        (experiments, &["--bogus"][..], "unknown flag '--bogus'"),
        (
            experiments,
            &["--quick", "--threads", "0"][..],
            "--threads must be at least 1, found 0",
        ),
        (
            experiments,
            &["--quick", "tie-break"][..],
            "unknown argument 'tie-break'",
        ),
        (astar, &["--bogus"][..], "unknown flag '--bogus'"),
        (
            astar,
            &["--quick", "--threads", "0"][..],
            "--threads must be at least 1, found 0",
        ),
        (
            astar,
            &["--quick", "bench-reprot"][..],
            "unknown argument 'bench-reprot'",
        ),
        (
            astar,
            &["--quick", "--out", "a.json"][..],
            "--out is only valid with bench-report",
        ),
        (settlement, &["--bogus"][..], "unknown flag '--bogus'"),
        (settlement, &["--quik"][..], "unknown flag '--quik'"),
        (
            settlement,
            &["--quick", "bench-reprot"][..],
            "unknown argument 'bench-reprot'",
        ),
        (
            settlement,
            &["--quick", "--out", "s.json"][..],
            "--out is only valid with bench-report",
        ),
        (
            scenario,
            &["bench-report", "--profile"][..],
            "unknown flag '--profile'",
        ),
        (
            scenario,
            &["horizn", "--slots", "1000"][..],
            "unknown argument 'horizn'",
        ),
        (
            scenario,
            &["bench-report", "--quick", "--threads", "0"][..],
            "--threads must be at least 1, found 0",
        ),
        (sweep, &["--quick", "bogus"][..], "unknown argument 'bogus'"),
        (
            sweep,
            &["--quick", "--threads", "0"][..],
            "--threads must be at least 1, found 0",
        ),
        (
            faults,
            &["--quick", "bogus"][..],
            "unknown argument 'bogus'",
        ),
        (
            faults,
            &["--quick", "--threads", "0"][..],
            "--threads must be at least 1, found 0",
        ),
        (
            faults,
            &["--quick", "--trials", "0"][..],
            "--trials must be at least 1, found 0",
        ),
        (
            forkflow,
            &["--quick", "bogus"][..],
            "unknown argument 'bogus'",
        ),
        (
            forkflow,
            &["--quick", "--slots", "0"][..],
            "--slots must be at least 1, found 0",
        ),
    ] {
        let out = std::process::Command::new(bin)
            .args(args)
            .output()
            .expect("run the binary");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {stderr}");
        assert!(
            stderr.starts_with(&format!("error: {error}\nusage: ")),
            "{bin} {args:?}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{stderr}");
        assert!(out.stdout.is_empty(), "{bin} {args:?} ran anyway");
    }
}
