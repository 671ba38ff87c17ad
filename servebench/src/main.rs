//! `servebench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! plus the pinned knobs (see `README.md`). Prints the report lines, then
//! one JSON result object as the last line of standard output. Exits
//! with 1 when any answer was wrong or any operation failed.

use servebench::bench::{self, Settings};
use servebench::plan::{Shape, Workload};
use servebench::system::Knobs;
use std::collections::HashMap;
use std::process::ExitCode;
use std::time::Duration;

const USAGE: &str =
    "usage: servebench --workload <hot-hits|cold-eval|batch-containment|ingest-mixed> \
--seed <n> --seconds <s> --trace <0|1> --engine-threads <n> --serve-workers <n> --queue-capacity <n> --tenant-fuel <n> --request-fuel <n> --request-deadline-ms <n>";

const FLAGS: [&str; 10] = [
    "workload",
    "seed",
    "seconds",
    "trace",
    "engine-threads",
    "serve-workers",
    "queue-capacity",
    "tenant-fuel",
    "request-fuel",
    "request-deadline-ms",
];

fn parse_args() -> Result<Settings, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut values: HashMap<&str, &str> = HashMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let name = flag
            .strip_prefix("--")
            .and_then(|n| FLAGS.iter().find(|f| **f == n))
            .ok_or_else(|| format!("unknown argument {flag:?}"))?;
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        values.insert(name, value);
    }
    let get = |name: &str| -> Result<u64, String> {
        let v = values
            .get(name)
            .ok_or_else(|| format!("--{name} is required"))?;
        v.parse()
            .map_err(|_| format!("--{name}: not a whole number: {v:?}"))
    };
    let positive = |name: &str| -> Result<u64, String> {
        get(name).and_then(|v| {
            if v > 0 {
                Ok(v)
            } else {
                Err(format!("--{name} must be positive"))
            }
        })
    };
    let workload = values.get("workload").ok_or("--workload is required")?;
    let workload =
        Workload::parse(workload).ok_or_else(|| format!("unknown workload {workload:?}"))?;
    let trace = match get("trace")? {
        0 => false,
        1 => true,
        _ => return Err("--trace must be 0 or 1".into()),
    };
    Ok(Settings {
        workload,
        seed: get("seed")?,
        seconds: positive("seconds")?,
        trace,
        knobs: Knobs {
            engine_threads: positive("engine-threads")? as usize,
            serve_workers: positive("serve-workers")? as usize,
            queue_capacity: positive("queue-capacity")? as usize,
            tenant_fuel: positive("tenant-fuel")?,
            request_fuel: positive("request-fuel")?,
            request_deadline: Duration::from_millis(positive("request-deadline-ms")?),
        },
    })
}

fn main() -> ExitCode {
    let settings = match parse_args() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("servebench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Stores live inside the working directory (the checkout), and are
    // removed when the run ends.
    let work_dir = std::path::PathBuf::from(".bench_build")
        .join("servebench-work")
        .join(format!(
            "{}-{}",
            settings.workload.name(),
            std::process::id()
        ));
    if let Err(e) = std::fs::create_dir_all(&work_dir) {
        eprintln!("servebench: cannot create {}: {e}", work_dir.display());
        return ExitCode::from(1);
    }
    let shape = Shape::full(settings.workload, settings.seconds);
    let outcome = bench::run(&settings, shape, &work_dir);
    let _ = std::fs::remove_dir_all(&work_dir);
    for line in &outcome.lines {
        println!("{line}");
    }
    println!("{}", bench::result_json(&outcome));
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
