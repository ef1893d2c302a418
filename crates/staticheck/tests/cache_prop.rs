//! Property test for the whole-tree memo: across randomized
//! touch-and-recheck sequences over a mutating workspace, a run with
//! `--cache` must be byte-identical (text and JSON renderings) to a
//! cacheless run over the same tree. The sequence mixes fingerprint-only
//! touches (comments), finding toggles (seeded violations appearing and
//! disappearing), interface changes (a helper rename that rewires the
//! cross-file call graph), allowlist-content changes on the shared memo
//! file (an SC101 waiver that also silences an SC108 chain), and
//! `--only` runs after an edit of the `obs::names` registry, which lies
//! outside the `--only` set but still feeds SC104. Every rerun on an
//! unchanged tree must be a memo hit.

use std::fs;
use std::path::{Path, PathBuf};

use staticheck::cli::run_captured;

/// Deterministic 64-bit LCG (Knuth MMIX constants) so the 64-step
/// sequence is reproducible without any external rand dependency.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        self.0 >> 33
    }

    fn pick(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// The mutable shape of the synthetic workspace.
struct World {
    root: PathBuf,
    /// Seeded SC109: a par-task closure reaching a RefCell field.
    demo_bad: bool,
    /// Seeded SC111: a Relaxed load flowing into `format!`.
    util_relaxed: bool,
    /// Which name the cross-crate helper currently has (0 or 1); a
    /// toggle renames the fn and its call site — an interface change.
    util_name: usize,
    /// Per-file touch counters rendered into comments.
    touches: [u32; 3],
    /// The allowlist waives SC101 in util, which also unseeds the
    /// SC108 chain `sum` -> closure -> helper.
    waive_util: bool,
    /// The registry holds a constant missing from `ALL` (SC104).
    names_bad: bool,
}

const HELPER_NAMES: [&str; 2] = ["step_fast", "step_slow"];

impl World {
    fn demo_src(&self) -> String {
        let helper = HELPER_NAMES[self.util_name];
        let bad = if self.demo_bad {
            "pub fn run(v: &View, units: &[u32]) -> Vec<u32> {\n    map_indexed(units, |_i, _u| analyze(v))\n}\n"
        } else {
            "pub fn run(v: &View, units: &[u32]) -> Vec<u32> {\n    let _ = units;\n    vec![analyze(v)]\n}\n"
        };
        format!(
            "//! demo crate (touch {t}).\n\n\
             pub struct View {{\n    memo: std::cell::RefCell<u32>,\n}}\n\n\
             impl View {{\n    pub fn classify(&self) -> u32 {{\n        *self.memo.borrow()\n    }}\n}}\n\n\
             fn analyze(v: &View) -> u32 {{\n    v.classify()\n}}\n\n\
             {bad}\n\
             pub fn sum(units: &[u32]) -> u32 {{\n    units.iter().map(|u| {helper}(*u)).sum()\n}}\n",
            t = self.touches[0],
        )
    }

    fn util_src(&self) -> String {
        let helper = HELPER_NAMES[self.util_name];
        let relaxed = if self.util_relaxed {
            "use std::sync::atomic::{AtomicU64, Ordering};\n\n\
             pub fn emit(c: &AtomicU64) -> String {\n    let n = c.load(Ordering::Relaxed);\n    format!(\"n={n}\")\n}\n"
        } else {
            ""
        };
        format!(
            "//! util crate (touch {t}).\n\n\
             pub fn {helper}(u: u32) -> u32 {{\n    u.checked_add(1).unwrap()\n}}\n\n{relaxed}",
            t = self.touches[1],
        )
    }

    fn names_src(&self) -> String {
        let bad = if self.names_bad {
            "pub const DEMO_BAD: &str = \"demo.bad\";\n\n"
        } else {
            ""
        };
        format!(
            "//! obs names registry (touch {t}).\n\n\
             pub const DEMO_COUNT: &str = \"demo.count\";\n\n{bad}\
             pub const ALL: [&str; 1] = [\n    DEMO_COUNT,\n];\n",
            t = self.touches[2],
        )
    }

    fn allow_src(&self) -> String {
        if self.waive_util {
            "[[allow]]\ncode = \"SC101\"\npath = \"crates/util/\"\n\
             reason = \"property-test waiver\"\n"
                .to_string()
        } else {
            "# no waivers\n".to_string()
        }
    }

    fn write_all(&self) {
        write(&self.root.join("crates/demo/src/lib.rs"), &self.demo_src());
        write(&self.root.join("crates/util/src/lib.rs"), &self.util_src());
        write(
            &self.root.join("crates/obs/src/names.rs"),
            &self.names_src(),
        );
        write(&self.root.join("staticheck.toml"), &self.allow_src());
    }
}

fn write(path: &Path, contents: &str) {
    fs::create_dir_all(path.parent().expect("parent")).expect("mkdir");
    fs::write(path, contents).expect("write");
}

/// One `lints` run over `root` with its `staticheck.toml`: the text
/// and JSON renderings, plus whether the memo hit.
fn run(root: &Path, cache: Option<&Path>, only: Option<&str>) -> (String, String, bool) {
    let mut args: Vec<String> = ["lints", "--root", root.to_str().expect("utf-8 path")]
        .iter()
        .map(|s| s.to_string())
        .collect();
    if let Some(c) = cache {
        args.push("--cache".to_string());
        args.push(c.to_str().expect("utf-8 path").to_string());
    }
    if let Some(prefix) = only {
        args.push("--only".to_string());
        args.push(prefix.to_string());
    }
    let (report, out) = run_captured(&args).expect("staticheck runs");
    let hit = out
        .cache_stats
        .is_some_and(|s| s.starts_with("staticheck-cache: hit"));
    (report.render_text_with(true), report.render_json(), hit)
}

#[test]
fn cached_runs_are_byte_identical_across_randomized_sequences() {
    let root = std::env::temp_dir().join(format!("staticheck-prop-{}", std::process::id()));
    fs::remove_dir_all(&root).ok();
    let cache = root.join("target/staticheck.cache");

    let mut world = World {
        root: root.clone(),
        demo_bad: true,
        util_relaxed: false,
        util_name: 0,
        touches: [0; 3],
        waive_util: false,
        names_bad: false,
    };
    world.write_all();

    let mut rng = Lcg(0x5eed_cafe_f00d_0001);
    // coverage bookkeeping: the sequence must visit both finding-full
    // and finding-free states, or the property is vacuous
    let mut saw_sc109 = false;
    let mut saw_clean_demo = false;
    let mut saw_sc108 = false;
    let mut saw_waived_sc108 = false;
    let mut saw_only_sc104 = false;

    for step in 0..64 {
        let mut only_step = false;
        match rng.pick(8) {
            f @ 0..=2 => {
                // fingerprint-only touch: comment churn in one file
                world.touches[f] += 1;
            }
            3 => world.demo_bad = !world.demo_bad,
            4 => world.util_relaxed = !world.util_relaxed,
            5 => {
                // interface change: rename the cross-crate helper and
                // its call site
                world.util_name ^= 1;
            }
            6 => {
                // allowlist-content change; the memo file still holds
                // the previous step's run under the old allowlist
                world.waive_util = !world.waive_util;
            }
            _ => {
                // registry edit between two `--only` runs that leave
                // names.rs out of the analysed set: the first stores
                // the old registry's SC104 findings in the memo
                run(&root, Some(&cache), Some(ONLY));
                world.names_bad = !world.names_bad;
                only_step = true;
            }
        }
        world.write_all();

        if only_step {
            let (cold_text, cold_json, _) = run(&root, None, Some(ONLY));
            let (warm_text, warm_json, hit) = run(&root, Some(&cache), Some(ONLY));
            assert!(!hit, "--only run hit across a registry edit at step {step}");
            assert_eq!(cold_text, warm_text, "--only text diverged at step {step}");
            assert_eq!(cold_json, warm_json, "--only json diverged at step {step}");
            saw_only_sc104 |= cold_text.contains("SC104");
        }

        let (cold_text, cold_json, _) = run(&root, None, None);
        let (warm_text, warm_json, _) = run(&root, Some(&cache), None);
        assert_eq!(cold_text, warm_text, "text diverged at step {step}");
        assert_eq!(cold_json, warm_json, "json diverged at step {step}");

        // the same tree again: the memo must hit, with the same bytes
        let (hit_text, hit_json, hit) = run(&root, Some(&cache), None);
        assert!(hit, "rerun on an unchanged tree missed at step {step}");
        assert_eq!(cold_text, hit_text, "hit text diverged at step {step}");
        assert_eq!(cold_json, hit_json, "hit json diverged at step {step}");

        saw_sc109 |= cold_text.contains("SC109");
        saw_clean_demo |= !cold_text.contains("SC109");
        saw_sc108 |= !world.waive_util && cold_text.contains("SC108");
        saw_waived_sc108 |= world.waive_util && !cold_text.contains("SC108");
    }

    fs::remove_dir_all(&root).ok();
    assert!(saw_sc109, "sequence never produced an SC109 finding");
    assert!(saw_clean_demo, "sequence never produced an SC109-free tree");
    assert!(saw_sc108, "sequence never produced an unwaived SC108 chain");
    assert!(saw_waived_sc108, "no allowlist change ever silenced SC108");
    assert!(saw_only_sc104, "no --only run ever saw a registry finding");
}

/// The `--only` prefix of the registry-edit steps.
const ONLY: &str = "crates/demo/";
