//! The whole-tree memo behind `--cache FILE`.
//!
//! A run's raw (pre-allowlist) findings are a pure function of its
//! inputs, so the memo stores them under one key and a run whose inputs
//! all match reuses them instead of analysing again. The key is an
//! FNV-1a over:
//!
//! * a **salt**: [`CHECK_VERSION`], the mode, the `--only` filter and
//!   the allowlist content (SC108 consults SC101 waivers during
//!   analysis, so the allowlist is an analysis input, not just a report
//!   filter);
//! * every analysed file's workspace-relative path and bytes;
//! * `crates/obs/src/names.rs`, which SC104 reads from the root even
//!   when `--only` leaves it out of the analysed set.
//!
//! A hit returns the stored findings; a miss runs the cold pipeline and
//! replaces the stored entry with its output. Findings go through the
//! allowlist at report time exactly as on a cold run, so a warm run is
//! byte-identical to a cold one (property-tested in
//! `tests/cache_prop.rs`).

use std::path::Path;

use serde::{Deserialize, Serialize};

use crate::diag::Diagnostic;

/// Bumped whenever any check's behavior changes; salts every memo key
/// so stale findings can never survive an analyzer upgrade.
pub const CHECK_VERSION: &str = "staticheck-v9:SC001-SC112,token-lints,tree-memo";

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Continue an FNV-1a 64-bit hash `h` over `bytes`.
fn fnv_extend(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// FNV-1a 64-bit.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv_extend(FNV_OFFSET, bytes)
}

/// The memo key of one run: `salt`, then every `(rel, text)` source,
/// then the bytes of the registry at `root` (absent reads as empty).
/// Each part is length-prefixed, so no two input sets hash one stream.
/// Hex, because the vendored serde_json rounds large integers through
/// f64.
pub(crate) fn key(salt: &str, sources: &[(String, String)], root: &Path) -> String {
    let names = std::fs::read(root.join("crates/obs/src/names.rs")).unwrap_or_default();
    let parts = std::iter::once(salt.as_bytes())
        .chain(
            sources
                .iter()
                .flat_map(|(rel, text)| [rel.as_bytes(), text.as_bytes()]),
        )
        .chain(std::iter::once(names.as_slice()));
    let h = parts.fold(FNV_OFFSET, |h, part| {
        fnv_extend(fnv_extend(h, &(part.len() as u64).to_le_bytes()), part)
    });
    format!("{h:016x}")
}

/// The on-disk memo: one key and the raw findings it produced.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Memo {
    key: String,
    findings: Vec<Diagnostic>,
}

/// The findings stored at `path` under `key`, or `run`'s output, which
/// then replaces the stored entry. The flag says whether it was a hit.
pub(crate) fn memo(
    path: &Path,
    key: &str,
    run: impl FnOnce() -> Result<Vec<Diagnostic>, String>,
) -> Result<(Vec<Diagnostic>, bool), String> {
    let stored = std::fs::read_to_string(path)
        .ok()
        .and_then(|text| serde_json::from_str::<Memo>(&text).ok());
    if let Some(m) = stored.filter(|m| m.key == key) {
        return Ok((m.findings, true));
    }
    let findings = run()?;
    let m = Memo {
        key: key.to_string(),
        findings,
    };
    // best effort: an unwritable memo degrades to cold runs
    if let Some(parent) = path.parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    if let Ok(text) = serde_json::to_string(&m) {
        let _ = std::fs::write(path, text);
    }
    Ok((m.findings, false))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vectors() {
        // FNV-1a 64 test vectors from the reference implementation
        assert_eq!(fnv1a(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn key_separates_paths_from_contents() {
        let root = Path::new("/nonexistent");
        let src = |rel: &str, text: &str| vec![(rel.to_string(), text.to_string())];
        let a = key("s", &src("crates/x/src/ab.rs", "c"), root);
        assert_eq!(a, key("s", &src("crates/x/src/ab.rs", "c"), root));
        assert_ne!(a, key("s", &src("crates/x/src/a.rs", "bc"), root));
        assert_ne!(a, key("t", &src("crates/x/src/ab.rs", "c"), root));
    }

    #[test]
    fn memo_hits_only_on_its_key() {
        let path = std::env::temp_dir().join(format!("staticheck-memo-{}", std::process::id()));
        let finding = Diagnostic::new(
            "SC110",
            crate::diag::Severity::Error,
            "crates/x/src/lib.rs:3",
            "inverted",
        );
        let cold = || Ok(vec![finding.clone()]);
        let (first, hit) = memo(&path, "k1", cold).expect("cold run");
        assert!(!hit);
        let (again, hit) = memo(&path, "k1", || Err("must not run".into())).expect("hit");
        assert!(hit);
        assert_eq!(first, again);
        let (_, hit) = memo(&path, "k2", || Ok(Vec::new())).expect("miss");
        assert!(!hit);
        std::fs::remove_file(&path).ok();
    }
}
