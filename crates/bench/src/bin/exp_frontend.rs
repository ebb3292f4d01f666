//! Sweeps the serving front-end (offered load × coalesce window ×
//! tenants, open- and closed-loop) and writes `BENCH_frontend.json`
//! to the repo root. Pass `--quick` for a reduced run, or
//! `--validate` to check an existing `BENCH_frontend.json` without
//! running anything — schema, ledger, and p50 within the coalesce
//! window plus `frontend::P50_SLACK_US` on open-loop rows that shed
//! nothing (the CI smoke job does both).

use bench::experiments::frontend;

fn main() {
    if std::env::args().any(|a| a == "--validate") {
        let path = frontend::bench_json_path();
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("error: cannot read {}: {e}", path.display());
                std::process::exit(1);
            }
        };
        match frontend::validate_doc(&text) {
            Ok(doc) => {
                println!(
                    "{} is valid: {} sweep rows, slo {} us, quick = {}",
                    path.display(),
                    doc.rows.len(),
                    doc.slo_us,
                    doc.quick
                );
            }
            Err(e) => {
                eprintln!("error: {} failed validation: {e}", path.display());
                std::process::exit(1);
            }
        }
        return;
    }
    let cfg = bench::ExpConfig::from_env();
    let _ = frontend::run(&cfg);
}
