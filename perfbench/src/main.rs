//! Command-line entry point; see `perfbench/README.md`.
//!
//! ```sh
//! perfbench --workload churn --seed 1 --seconds 10 --trace 0
//! ```
//!
//! The last line of standard output is the JSON result; the command exits
//! non-zero when an operation failed or a correctness check did not hold.

use perfbench::metrics;
use perfbench::run::Kind;
use std::process::ExitCode;
use std::time::Duration;

struct Args {
    workload: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 0u64;
    let mut seconds = 10u64;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Kind::parse(&value).ok_or_else(|| format!("unknown workload `{value}`"))?)
            }
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?.max(1),
            "--trace" => trace = number()? != 0,
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <burst|faulted-durable|engine-large> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let budget = Duration::from_secs(args.seconds);
    let result = if args.trace {
        metrics::traced(args.workload, args.seed, budget)
    } else {
        metrics::end_to_end(args.workload, args.seed, budget)
    };
    for failure in &result.failures {
        eprintln!("perfbench: FAILED: {failure}");
    }
    for line in &result.notes {
        println!("{line}");
    }
    println!("{}", result.to_json());
    if result.failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
