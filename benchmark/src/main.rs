//! The repo benchmark: five workloads, two clocks (modeled `sim_*` time and
//! harness `host_*` time), and a per-layer ledger measured from outside the
//! program. See `benchmark/README.md`.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- run \
//!     [--workload W] [--seed N] [--seconds S] [--trace 0|1 | --traced]
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- aa [--seed N] [--seconds S]
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- manifest   # BENCHMARK.json
//! ```

mod child;
mod driver;
mod hostclock;
mod inputs;
mod knee;
mod ledger;
mod metrics;
mod micro;
mod spans;
mod workloads;

use std::process::ExitCode;
use std::time::Instant;

use child::Mode;
use workloads::Workload;

/// `run_seconds` of `BENCHMARK.json`, and the default of `--seconds`.
const RUN_SECONDS: u64 = 8;

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    traced: bool,
    mode: Mode,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS as f64,
        traced: false,
        mode: Mode::Window,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--traced" {
            out.traced = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => out.workload = Some(Workload::from_name(value).ok_or_else(bad)?),
            "--seed" => out.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => out.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => out.traced = value.parse::<u8>().map_err(|_| bad())? != 0,
            "--mode" => {
                out.mode = Mode::ALL
                    .into_iter()
                    .find(|m| m.name() == value)
                    .ok_or_else(bad)?
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(out)
}

fn manifest() -> String {
    let workloads: Vec<(&str, &str)> = Workload::ALL.iter().map(|w| (w.name(), w.why())).collect();
    metrics::manifest_json(&workloads, RUN_SECONDS)
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = argv.split_first() else {
        eprintln!("usage: run|aa|manifest [--workload W] [--seed N] [--seconds S] [--trace 0|1]");
        return ExitCode::from(2);
    };
    let args = match parse(rest) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let outcome = match command.as_str() {
        "run" => {
            let workloads = args.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]);
            workloads.into_iter().try_for_each(|w| {
                driver::run_and_print(w, args.seed, args.seconds, args.traced).map(|_| ())
            })
        }
        "aa" => driver::aa(args.seed, args.seconds).and_then(|pass| {
            if pass {
                Ok(())
            } else {
                Err("A/A failed".into())
            }
        }),
        "manifest" => {
            print!("{}", manifest());
            Ok(())
        }
        // Internal: one measurement in this process, reported on stdout.
        "child" => match args.workload {
            Some(w) => {
                print!(
                    "{}",
                    child::run(w, args.seed, args.mode, process_start).to_lines()
                );
                Ok(())
            }
            None => Err("child needs --workload".into()),
        },
        other => Err(format!("unknown command {other}")),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repo root is the generated manifest, so every
    /// name the benchmark prints is declared there.
    #[test]
    fn benchmark_json_matches_the_declarations() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            committed,
            manifest(),
            "regenerate with `cargo run --manifest-path benchmark/Cargo.toml -- manifest > BENCHMARK.json`"
        );
        assert!(committed.len() <= 64 * 1024);
        for w in Workload::ALL {
            assert!(
                w.why().len() <= 200 && !w.why().contains('\n'),
                "{}",
                w.name()
            );
        }
    }

    #[test]
    fn flags_of_the_driver_contract_parse() {
        let argv = [
            "--workload",
            "share_cow",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ];
        let a = parse(&argv.map(String::from)).unwrap();
        assert_eq!(a.workload, Some(Workload::ShareCow));
        assert_eq!((a.seed, a.seconds, a.traced), (7, 3.0, true));
        assert!(parse(&["--workload".into(), "nope".into()]).is_err());
        assert!(parse(&["--bogus".into(), "1".into()]).is_err());
    }
}
