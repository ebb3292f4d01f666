//! `e2ebench --workload <name> --seed <n> --seconds <s> --trace <0|1>`:
//! runs one workload and prints its metrics; the last line of standard
//! output is the JSON result.

use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match e2ebench::Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            eprintln!("usage: e2ebench --workload <adhoc-execute|dag-feedback|serve-open> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let report = e2ebench::run(&args);
    for note in &report.notes {
        println!("# {note}");
    }
    println!("{}", report.json());
    ExitCode::SUCCESS
}
