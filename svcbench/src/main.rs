//! `svcbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Runs one workload of the service benchmark, prints a table of every
//! metric by name and unit, and ends with one JSON result line. Exits
//! nonzero when an answer contradicts the reference.

use svcbench::{closed, tenant, Opts, Workload};

fn usage() -> ! {
    eprintln!("usage: svcbench --workload <tenant_stream|cold_goals|refute_under_load> --seed <n> --seconds <s> --trace <0|1>");
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut opts = Opts {
        seed: 1,
        seconds: 10.0,
        trace: false,
        tiny: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else { usage() };
        match flag.as_str() {
            "--workload" => workload = Some(Workload::from_name(value).unwrap_or_else(|| usage())),
            "--seed" => opts.seed = value.parse().unwrap_or_else(|_| usage()),
            "--seconds" => opts.seconds = value.parse().unwrap_or_else(|_| usage()),
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            _ => usage(),
        }
    }
    let Some(workload) = workload else { usage() };
    if opts.seconds.is_nan() || opts.seconds <= 0.0 {
        usage();
    }
    let outcome = match workload {
        Workload::TenantStream => tenant::run(&opts),
        Workload::ColdGoals => closed::run_cold(&opts),
        Workload::RefuteUnderLoad => closed::run_refute(&opts),
    };
    print!("{}", outcome.table(workload.name()));
    println!("{}", outcome.json());
    if !outcome.correct() {
        std::process::exit(1);
    }
}
