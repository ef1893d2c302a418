//! The `staticheck` command line: mode selection, fixture loading,
//! allowlist application, rendering, exit codes.
//!
//! ```text
//! staticheck [policy|lints|all] [--format text|json|sarif] [--json]
//!            [--warnings] [--root DIR] [--only PREFIX]
//!            [--fixture FILE.json] [--allowlist FILE.toml]
//!            [--no-allowlist] [--cache FILE]
//! ```
//!
//! Default mode is `all`. Without a fixture, `policy` verifies every
//! built-in IXP scheme (members unknown, so SC003 is skipped — the
//! per-scenario member set is checked by the `repro check` pre-flight)
//! and cross-checks the eight dictionaries against each other (SC006).
//! `lints` runs the token lints (SC101–SC106) and the call-graph checks
//! (SC107–SC112) over one lexing of each workspace file.
//!
//! Exit codes: 0 = clean, 1 = non-allowlisted error-grade findings
//! remain, 2 = internal/IO error (the analysis did not complete).

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use serde::{Deserialize, Serialize};

use bgp_model::asn::Asn;
use community_dict::dictionary::Dictionary;
use community_dict::entry::DictionaryEntry;
use community_dict::ixp::IxpId;
use route_server::config::RsConfig;
use route_server::rules::ImportRule;

use crate::allow::Allowlist;
use crate::diag::{Diagnostic, Report};
use crate::{cache, callgraph, dataflow, diag, lexer, lints, policy, sarif};

/// A self-contained policy-verification scenario, loadable from JSON.
/// Used by the seeded-violation fixtures under `tests/fixtures/`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fixture {
    /// Which IXP's scheme to verify against.
    pub ixp: IxpId,
    /// Configured member ASNs; `None` skips SC003.
    #[serde(default)]
    pub members: Option<Vec<Asn>>,
    /// Import rules installed on the route server.
    #[serde(default)]
    pub rules: Vec<ImportRule>,
    /// Extra dictionary entries layered on top of the base.
    #[serde(default)]
    pub extra_entries: Vec<DictionaryEntry>,
    /// Verify against only `extra_entries` instead of the IXP's full
    /// scheme dictionary (keeps fixture expectations exact).
    #[serde(default)]
    pub empty_dict: bool,
    /// A second IXP whose dictionary (`drift_entries`) is cross-checked
    /// against this fixture's dictionary (SC006), when set.
    #[serde(default)]
    pub drift_ixp: Option<IxpId>,
    /// The second dictionary's entries for the SC006 cross-check.
    #[serde(default)]
    pub drift_entries: Vec<DictionaryEntry>,
}

impl Fixture {
    /// Run the policy verifier on this fixture.
    pub fn verify(&self) -> Vec<Diagnostic> {
        let config = RsConfig::for_ixp(self.ixp).with_import_rules(self.rules.clone());
        let mut entries = if self.empty_dict {
            Vec::new()
        } else {
            community_dict::schemes::dictionary(self.ixp)
                .entries()
                .to_vec()
        };
        entries.extend(self.extra_entries.iter().cloned());
        let dict = Dictionary::new(self.ixp, entries);
        let members: Option<BTreeSet<Asn>> =
            self.members.as_ref().map(|m| m.iter().copied().collect());
        let mut out = policy::verify(&config, &dict, members.as_ref());
        if let Some(other) = self.drift_ixp {
            let dicts = [dict, Dictionary::new(other, self.drift_entries.clone())];
            out.extend(policy::verify_cross_dictionaries(&dicts));
        }
        out
    }
}

/// Output format selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    /// Human-readable, one finding per line.
    Text,
    /// The [`Report`] as JSON.
    Json,
    /// SARIF 2.1.0 (code-scanning artifact).
    Sarif,
}

/// Parsed command line.
#[derive(Debug, Clone)]
struct Options {
    mode: Mode,
    format: Format,
    warnings: bool,
    root: PathBuf,
    only: Option<String>,
    fixture: Option<PathBuf>,
    allowlist: Option<PathBuf>,
    no_allowlist: bool,
    cache: Option<PathBuf>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Policy,
    Lints,
    All,
}

/// The workspace root baked in at compile time; `--root` overrides.
fn default_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .map(Path::to_path_buf)
        .unwrap_or_else(|| PathBuf::from("."))
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        mode: Mode::All,
        format: Format::Text,
        warnings: false,
        root: default_root(),
        only: None,
        fixture: None,
        allowlist: None,
        no_allowlist: false,
        cache: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "policy" => opts.mode = Mode::Policy,
            "lints" => opts.mode = Mode::Lints,
            "all" => opts.mode = Mode::All,
            "--json" => opts.format = Format::Json,
            "--format" => {
                let v = it.next().ok_or("--format needs text, json, or sarif")?;
                opts.format = match v.as_str() {
                    "text" => Format::Text,
                    "json" => Format::Json,
                    "sarif" => Format::Sarif,
                    other => return Err(format!("unknown format {other:?}\n{USAGE}")),
                };
            }
            "--warnings" => opts.warnings = true,
            "--root" => {
                let v = it.next().ok_or("--root needs a directory")?;
                opts.root = PathBuf::from(v);
            }
            "--only" => {
                let v = it.next().ok_or("--only needs a path prefix")?;
                opts.only = Some(v.clone());
            }
            "--fixture" => {
                let v = it.next().ok_or("--fixture needs a file")?;
                opts.fixture = Some(PathBuf::from(v));
            }
            "--allowlist" => {
                let v = it.next().ok_or("--allowlist needs a file")?;
                opts.allowlist = Some(PathBuf::from(v));
            }
            "--no-allowlist" => opts.no_allowlist = true,
            "--cache" => {
                let v = it.next().ok_or("--cache needs a file path")?;
                opts.cache = Some(PathBuf::from(v));
            }
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    Ok(opts)
}

const USAGE: &str = "\
usage: staticheck [policy|lints|all] [options]

modes:
  policy           verify IXP schemes / a --fixture (SC001-SC006)
  lints            workspace lints + dataflow (SC101-SC112)
  all              both (default)

options:
  --format FMT     output format: text (default), json, or sarif
                   (SARIF 2.1.0, for CI artifacts and editors)
  --json           shorthand for --format json
  --warnings       include warning-grade findings in text output
  --root DIR       workspace root (default: this checkout)
  --only PREFIX    restrict lints/dataflow to files under PREFIX
                   (e.g. --only crates/staticheck/ for the self-lint)
  --fixture F.json verify a self-contained policy scenario
  --allowlist F    allowlist file (default: <root>/staticheck.toml)
  --no-allowlist   ignore the allowlist entirely
  --cache FILE     memo file (e.g. target/staticheck.cache): a run
                   over a tree, mode, --only and allowlist identical to
                   the stored run reuses its findings, any change
                   re-analyzes everything; output is byte-identical
                   to a run without --cache
  --explain SCxxx  print the catalog entry for a diagnostic code
                   (rationale + waiver policy) and exit; unknown codes
                   exit 2

exit codes: 0 = clean, 1 = error-grade findings, 2 = internal error";

/// Policy findings for every built-in IXP scheme (members unknown),
/// plus the SC006 cross-dictionary drift check over all eight.
pub fn verify_builtin_schemes() -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let mut dicts = Vec::new();
    for ixp in IxpId::ALL {
        let config = RsConfig::for_ixp(ixp);
        let dict = community_dict::schemes::dictionary(ixp);
        out.extend(policy::verify(&config, &dict, None));
        dicts.push(dict);
    }
    out.extend(policy::verify_cross_dictionaries(&dicts));
    out
}

/// Run staticheck. Returns the process exit code; diagnostics go to
/// `stdout`, operational errors to `stderr`.
pub fn run(args: &[String]) -> i32 {
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return 0;
    }
    // `--explain SCxxx`: print the catalog entry and exit (2 on an
    // unknown code, so CI scripts notice typos)
    if let Some(pos) = args.iter().position(|a| a == "--explain") {
        let Some(code) = args.get(pos + 1) else {
            eprintln!("staticheck: --explain needs a diagnostic code (e.g. SC109)");
            return 2;
        };
        return match diag::explain(code) {
            Some(text) => {
                print!("{text}");
                0
            }
            None => {
                eprintln!("staticheck: unknown diagnostic code {code:?}");
                2
            }
        };
    }
    match run_captured(args) {
        Ok((report, output)) => {
            if let Some(stats) = &output.cache_stats {
                eprintln!("{stats}");
            }
            match output.format {
                Format::Json => println!("{}", report.render_json()),
                Format::Sarif => print!("{}", sarif::render_sarif(&report)),
                Format::Text => print!("{}", report.render_text_with(output.warnings)),
            }
            report.exit_code()
        }
        Err(msg) => {
            eprintln!("staticheck: {msg}");
            2
        }
    }
}

/// How [`run`] should print the report.
#[derive(Debug, Clone)]
pub struct OutputOpts {
    /// Selected output format.
    pub format: Format,
    /// Include warning-severity findings in text output.
    pub warnings: bool,
    /// The memo's `staticheck-cache: hit|miss (N files)` line for
    /// stderr / the CI artifact, when the run used `--cache`.
    pub cache_stats: Option<String>,
}

/// Every library source under `crates/*/src/` and the root `src/`
/// whose workspace-relative path starts with `only` (when given), as
/// sorted `(rel, text)` pairs: the one read of the tree that both the
/// memo key and the engines consume.
pub(crate) fn load_sources(root: &Path, only: Option<&str>) -> Vec<(String, String)> {
    fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                collect_rs(&path, out);
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(path);
            }
        }
    }
    let mut files = Vec::new();
    if let Ok(crates) = std::fs::read_dir(root.join("crates")) {
        for entry in crates.flatten() {
            collect_rs(&entry.path().join("src"), &mut files);
        }
    }
    collect_rs(&root.join("src"), &mut files);
    files.sort();
    files
        .into_iter()
        .filter_map(|file| {
            let rel = file
                .strip_prefix(root)
                .unwrap_or(&file)
                .to_string_lossy()
                .replace('\\', "/");
            if only.is_some_and(|p| !rel.starts_with(p)) {
                return None;
            }
            let text = std::fs::read_to_string(&file).ok()?;
            Some((rel, text))
        })
        .collect()
}

/// The cold pipeline: policy (a fixture or the built-in schemes), then
/// each source lexed once for both its token lints and its call-graph
/// symbols, then the SC104 registry check and the graph checks.
/// Returns raw findings; the allowlist applies at report time.
fn analyze(
    opts: &Options,
    allow: &Allowlist,
    sources: &[(String, String)],
) -> Result<Vec<Diagnostic>, String> {
    let mut out = Vec::new();
    if opts.mode != Mode::Lints {
        match &opts.fixture {
            Some(path) => {
                let text = std::fs::read_to_string(path)
                    .map_err(|e| format!("cannot read fixture {}: {e}", path.display()))?;
                let fixture: Fixture = serde_json::from_str(&text)
                    .map_err(|e| format!("bad fixture {}: {e}", path.display()))?;
                out.extend(fixture.verify());
            }
            None => out.extend(verify_builtin_schemes()),
        }
    }
    if opts.mode != Mode::Policy {
        let mut files = Vec::with_capacity(sources.len());
        for (rel, text) in sources {
            let toks = lexer::lex(text);
            lints::lint_file(rel, &toks, &mut out);
            files.push(callgraph::parse_file(rel, toks));
        }
        lints::check_names_registry(&opts.root, &mut out);
        out.extend(dataflow::analyze_graph(
            &callgraph::CallGraph::build(files),
            allow,
        ));
    }
    Ok(out)
}

/// The testable core of [`run`]: everything but printing and exiting.
pub fn run_captured(args: &[String]) -> Result<(Report, OutputOpts), String> {
    let opts = parse_args(args)?;

    // the allowlist loads before the engines: the dataflow pass treats
    // SC101-waived panic sites as sanctioned (they do not seed SC108)
    let allowlist = if opts.no_allowlist {
        Allowlist::default()
    } else {
        let path = opts
            .allowlist
            .clone()
            .unwrap_or_else(|| opts.root.join("staticheck.toml"));
        Allowlist::load(&path).map_err(|e| e.to_string())?
    };

    // policy-only runs read no sources
    let sources = if opts.mode == Mode::Policy {
        Vec::new()
    } else {
        load_sources(&opts.root, opts.only.as_deref())
    };
    let cold = || analyze(&opts, &allowlist, &sources);
    let (findings, cache_stats) = match (&opts.cache, &opts.fixture) {
        // fixtures bypass the memo: their inputs live outside the tree
        (Some(path), None) => {
            // `--no-allowlist` and a missing file are both no entries
            let salt = format!(
                "{}|mode={:?}|only={}|allow={:?}",
                cache::CHECK_VERSION,
                opts.mode,
                opts.only.as_deref().unwrap_or(""),
                allowlist.entries
            );
            let key = cache::key(&salt, &sources, &opts.root);
            let (findings, hit) = cache::memo(path, &key, cold)?;
            let stats = format!(
                "staticheck-cache: {} ({} files)",
                if hit { "hit" } else { "miss" },
                sources.len()
            );
            (findings, Some(stats))
        }
        _ => (cold()?, None),
    };

    let mut report = Report::default();
    for d in findings {
        if allowlist.waiver(&d).is_some() {
            report.allowed.push(d);
        } else {
            report.findings.push(d);
        }
    }
    Ok((
        report,
        OutputOpts {
            format: opts.format,
            warnings: opts.warnings,
            cache_stats,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &[&str]) -> Vec<String> {
        v.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn committed_tree_is_clean() {
        // the acceptance gate: `staticheck all` exits 0 on this repo
        let (report, _) = run_captured(&s(&["all"])).expect("run");
        assert_eq!(report.exit_code(), 0, "{}", report.render_text());
    }

    #[test]
    fn self_lint_is_clean_without_allowlist() {
        // the analyzer holds itself to its own rules, no waivers
        let (report, _) = run_captured(&s(&[
            "lints",
            "--only",
            "crates/staticheck/",
            "--no-allowlist",
        ]))
        .expect("run");
        assert_eq!(report.exit_code(), 0, "{}", report.render_text());
        assert!(report.allowed.is_empty());
    }

    #[test]
    fn unknown_argument_is_an_error() {
        assert!(run_captured(&s(&["--bogus"])).is_err());
        assert!(run_captured(&s(&["--format", "yaml"])).is_err());
    }

    #[test]
    fn output_flags_are_parsed() {
        let (_, out) = run_captured(&s(&["policy", "--json"])).expect("run");
        assert!(out.format == Format::Json && !out.warnings);
        let (_, out) = run_captured(&s(&["policy", "--warnings"])).expect("run");
        assert!(out.warnings && out.format == Format::Text);
        let (_, out) = run_captured(&s(&["policy", "--format", "sarif"])).expect("run");
        assert!(out.format == Format::Sarif);
    }

    #[test]
    fn sarif_output_renders_for_the_tree() {
        let (report, _) = run_captured(&s(&["policy", "--format", "sarif"])).expect("run");
        let doc = sarif::render_sarif(&report);
        serde_json::parse_value(&doc).expect("valid JSON");
        assert!(doc.contains("\"name\": \"staticheck\""));
    }

    #[test]
    fn fixture_round_trip() {
        let f = Fixture {
            ixp: IxpId::DeCixFra,
            members: Some(vec![Asn(64500)]),
            rules: Vec::new(),
            extra_entries: Vec::new(),
            empty_dict: true,
            drift_ixp: None,
            drift_entries: Vec::new(),
        };
        let text = serde_json::to_string(&f).expect("serialize");
        let back: Fixture = serde_json::from_str(&text).expect("parse");
        assert_eq!(back.ixp, IxpId::DeCixFra);
        assert!(back.empty_dict);
        assert!(back.verify().is_empty());
    }
}
