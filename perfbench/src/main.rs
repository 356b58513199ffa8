//! `relvu-perfbench`: one workload per run, end-to-end metrics by
//! default, per-layer metrics with `--trace 1`. The last line of standard
//! output is the result as one JSON object.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload exact_mixed --seed 1 --seconds 10 --trace 0
//! ```

mod alloc;
mod model;
mod stats;
mod vfs;
mod workload;

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

const USAGE: &str = "usage: relvu-perfbench --workload <exact_mixed|large_view|churn_small> \
                     --seed <n> --seconds <n> --trace <0|1>";

struct Args {
    workload: &'static workload::Spec,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                let spec = workload::SPECS.iter().find(|s| s.name == value);
                workload = Some(spec.ok_or_else(|| format!("unknown workload {value}"))?);
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = Some(number()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if let Err(e) = model::self_check() {
        eprintln!("the reference model disagrees with the paper's example: {e}");
        std::process::exit(1);
    }
    let out = workload::run(args.workload, args.seed, args.seconds, args.trace);
    println!(
        "{}",
        stats::result_json(out.correct, out.attempted, out.failed, &out.metrics)
    );
}
