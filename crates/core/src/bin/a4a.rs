//! `a4a` — command-line front end to the A4A flow, the Workcraft
//! equivalent for scripted use:
//!
//! ```text
//! a4a verify  <spec.g>             sanity checks (+ state-graph stats)
//! a4a synth   <spec.g> [--gc]      synthesise; print equations & stats
//! a4a verilog <spec.g> [--gc] [--map]
//!                                  emit structural Verilog (optionally
//!                                  technology-mapped to 2-input cells)
//! a4a timing  <spec.g> [--gc]      static timing report of the netlist
//! a4a dot     <spec.g> [--sg]      Graphviz of the STG (or state graph)
//! a4a modules [dir]                write the built-in controller and A2A
//!                                  module specs as .g files
//! ```
//!
//! A path of `-` reads the specification from stdin.

use std::io::Read as _;
use std::process::ExitCode;

use a4a::A4aFlow;
use a4a_netlist::{decompose, verilog, GateLib};
use a4a_stg::Stg;
use a4a_synth::SynthStyle;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(output) => {
            print!("{output}");
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("a4a: {message}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<String, String> {
    let Some(command) = args.first() else {
        return Err(usage());
    };
    let flags: Vec<&str> = args[1..]
        .iter()
        .filter(|a| a.starts_with("--"))
        .map(String::as_str)
        .collect();
    let positional: Vec<&str> = args[1..]
        .iter()
        .filter(|a| !a.starts_with("--"))
        .map(String::as_str)
        .collect();
    if let Some(bad) = flags
        .iter()
        .find(|f| !matches!(**f, "--gc" | "--map" | "--sg"))
    {
        return Err(format!("unknown flag {bad:?}\n{}", usage()));
    }
    let style = if flags.contains(&"--gc") {
        SynthStyle::GeneralizedC
    } else {
        SynthStyle::ComplexGate
    };

    match command.as_str() {
        "verify" => {
            let stg = load(positional.first().copied())?;
            let sg = stg
                .state_graph(1_000_000)
                .map_err(|e| format!("state graph: {e}"))?;
            let report = stg.verify(&sg);
            Ok(format!(
                "{}\nstates: {}  edges: {}\n{}",
                stg,
                sg.state_count(),
                sg.edge_count(),
                report.summary()
            ))
        }
        "synth" => {
            let stg = load(positional.first().copied())?;
            let result = A4aFlow::new(stg.clone())
                .with_style(style)
                .run()
                .map_err(|e| e.to_string())?;
            Ok(format!(
                "{}\n{}gates: {}  literals: {}\nSI: {} joint states, {} violations\n",
                stg,
                result.equations,
                result.synthesis.netlist().gate_count(),
                result.synthesis.literal_count(),
                result.si.states,
                result.si.violations.len()
            ))
        }
        "verilog" => {
            let stg = load(positional.first().copied())?;
            let result = A4aFlow::new(stg)
                .with_style(style)
                .run()
                .map_err(|e| e.to_string())?;
            if flags.contains(&"--map") {
                let mapped = decompose(result.synthesis.netlist(), &GateLib::tsmc90())
                    .map_err(|e| format!("mapping: {e}"))?;
                Ok(verilog::emit(&mapped))
            } else {
                Ok(result.verilog)
            }
        }
        "timing" => {
            let stg = load(positional.first().copied())?;
            let result = A4aFlow::new(stg)
                .with_style(style)
                .run()
                .map_err(|e| e.to_string())?;
            let netlist = result.synthesis.netlist();
            let mut out = String::new();
            for p in a4a_netlist::path::report(netlist).into_iter().take(10) {
                out.push_str(&format!(
                    "{:>10}  {}\n",
                    format!("{}", p.delay),
                    p.render(netlist)
                ));
            }
            Ok(out)
        }
        "dot" => {
            let stg = load(positional.first().copied())?;
            if flags.contains(&"--sg") {
                let sg = stg
                    .state_graph(1_000_000)
                    .map_err(|e| format!("state graph: {e}"))?;
                Ok(sg.to_dot(&stg))
            } else {
                Ok(stg.to_dot())
            }
        }
        "modules" => {
            let dir = positional.first().copied().unwrap_or("specs");
            std::fs::create_dir_all(dir).map_err(|e| format!("{dir}: {e}"))?;
            let mut out = String::new();
            let mut specs = a4a_ctrl::stgs::all_module_stgs();
            specs.extend(a4a_a2a::spec::all_specs());
            for (name, stg) in specs {
                let path = format!("{dir}/{name}.g");
                std::fs::write(&path, stg.to_g()).map_err(|e| format!("{path}: {e}"))?;
                out.push_str(&format!("wrote {path}\n"));
            }
            Ok(out)
        }
        "--help" | "-h" | "help" => Ok(usage()),
        other => Err(format!("unknown command {other:?}\n{}", usage())),
    }
}

fn load(path: Option<&str>) -> Result<Stg, String> {
    let path = path.ok_or_else(|| format!("missing <spec.g> argument\n{}", usage()))?;
    let text = if path == "-" {
        let mut buf = String::new();
        std::io::stdin()
            .read_to_string(&mut buf)
            .map_err(|e| format!("stdin: {e}"))?;
        buf
    } else {
        std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?
    };
    Stg::parse_g(&text).map_err(|e| format!("{path}: {e}"))
}

fn usage() -> String {
    "usage: a4a <verify|synth|verilog|timing|dot|modules> <spec.g|-> [--gc] [--map] [--sg]\n"
        .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn handshake_file() -> tempfile::TempFile {
        tempfile::TempFile::with_contents(
            "\
.model hs
.inputs req
.outputs ack
.graph
req+ ack+
ack+ req-
req- ack-
ack- req+
.marking { <ack-,req+> }
.end
",
        )
    }

    /// Minimal scoped temp file (no external crate).
    mod tempfile {
        pub struct TempFile {
            pub path: std::path::PathBuf,
        }
        impl TempFile {
            pub fn with_contents(text: &str) -> TempFile {
                // One path per file: tests run in parallel, and a shared
                // path lets one test's drop delete or rewrite the file
                // another test is reading.
                use std::sync::atomic::{AtomicUsize, Ordering};
                static NEXT: AtomicUsize = AtomicUsize::new(0);
                let n = NEXT.fetch_add(1, Ordering::Relaxed);
                let pid = std::process::id();
                let path = std::env::temp_dir().join(format!("a4a_cli_test_{pid}_{n}.g"));
                std::fs::write(&path, text).expect("write temp spec");
                TempFile { path }
            }
            pub fn path_str(&self) -> String {
                self.path.display().to_string()
            }
        }
        impl Drop for TempFile {
            fn drop(&mut self) {
                let _ = std::fs::remove_file(&self.path);
            }
        }
    }

    fn args(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn verify_reports_clean() {
        let f = handshake_file();
        let out = run(&args(&["verify", &f.path_str()])).unwrap();
        assert!(out.contains("verdict: clean"), "{out}");
        assert!(out.contains("states: 4"));
    }

    #[test]
    fn synth_prints_equations() {
        let f = handshake_file();
        let out = run(&args(&["synth", &f.path_str()])).unwrap();
        assert!(out.contains("ack = req"), "{out}");
        assert!(out.contains("0 violations"));
    }

    #[test]
    fn verilog_emits_module_and_mapping_flag_works() {
        let f = handshake_file();
        let plain = run(&args(&["verilog", &f.path_str()])).unwrap();
        assert!(plain.contains("module hs"));
        let mapped = run(&args(&["verilog", &f.path_str(), "--map", "--gc"])).unwrap();
        assert!(mapped.contains("module hs_mapped"));
    }

    #[test]
    fn timing_reports_paths() {
        let f = handshake_file();
        let out = run(&args(&["timing", &f.path_str()])).unwrap();
        assert!(out.contains("->") || out.contains("ack"), "{out}");
    }

    #[test]
    fn dot_modes() {
        let f = handshake_file();
        let stg_dot = run(&args(&["dot", &f.path_str()])).unwrap();
        assert!(stg_dot.starts_with("digraph"));
        let sg_dot = run(&args(&["dot", &f.path_str(), "--sg"])).unwrap();
        assert!(sg_dot.contains("_sg"));
    }

    #[test]
    fn errors_are_reported() {
        assert!(run(&args(&["verify"])).is_err());
        assert!(run(&args(&["bogus"])).is_err());
        assert!(run(&args(&["verify", "/nonexistent.g"])).is_err());
        assert!(run(&[]).is_err());
        let err = run(&args(&["verify", "x.g", "--bogus"])).unwrap_err();
        assert!(err.contains("unknown flag"), "{err}");
    }

    #[test]
    fn help_prints_usage() {
        let out = run(&args(&["help"])).unwrap();
        assert!(out.contains("usage:"));
    }
}
