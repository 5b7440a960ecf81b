//! Determinism pass: the answer-path crates (`core`, `search`,
//! `serve`, `plan`) must not iterate hash-ordered containers or
//! compare distances through `PartialOrd` shortcuts.
//!
//! Two rules:
//!
//! * `determinism/map-iteration` — any `.iter()` / `.keys()` /
//!   `.values()` / `.drain()` / `.retain()` / `for … in` over a local
//!   or field whose type mentions `HashMap`/`HashSet`. Keyed lookups
//!   (`get`, `insert`, `remove`, `contains_key`) stay allowed; `BTree*`
//!   containers are ordered and exempt.
//! * `determinism/float-compare` — `partial_cmp` anywhere, and
//!   `<`/`>`/`<=`/`>=` where a `distance` field/ident sits in the
//!   comparison window, unless the line already routes through
//!   `total_cmp` or the audited `ELIMINATION_SLACK` band.
//!
//! Audited sites are exempted either by enclosing-function allowlist
//! (`sanitise_distance`, `ordering`) or by an explicit
//! `// lint:allow(rule) — reason` annotation.

use crate::lexer::TokKind;
use crate::model::{Finding, SourceFile};
use std::collections::BTreeSet;

/// Crates whose non-test code feeds query answers. `plan` qualifies
/// twice over: the planner picks the structure every answer flows
/// through, and the cache replays stored answers verbatim.
pub const ANSWER_PATH_CRATES: &[&str] = &["core", "search", "serve", "plan"];

/// Functions audited by hand; their bodies may compare floats.
const ALLOWED_FNS: &[&str] = &["sanitise_distance", "ordering"];

const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "values",
    "values_mut",
    "drain",
    "retain",
];

pub fn run(files: &[SourceFile], findings: &mut Vec<Finding>) {
    for f in files {
        if !ANSWER_PATH_CRATES.contains(&f.crate_name.as_str()) {
            continue;
        }
        let tracked = hash_container_names(f);
        check_map_iteration(f, &tracked, findings);
        check_float_compares(f, findings);
    }
}

/// Collect names bound to `HashMap`/`HashSet` values: typed bindings
/// and fields (`name: … HashMap<…>`), constructor bindings
/// (`let name = HashMap::new()`), plus one step of taint through `let`
/// re-bindings whose initializer mentions a tracked name (catches
/// `let map = self.pending.lock()…`).
fn hash_container_names(f: &SourceFile) -> BTreeSet<String> {
    let toks = &f.tokens;
    let mut tracked: BTreeSet<String> = BTreeSet::new();
    // Pass 1: direct declarations.
    for i in 0..toks.len() {
        if toks[i].kind != TokKind::Ident
            || !(toks[i].text == "HashMap" || toks[i].text == "HashSet")
        {
            continue;
        }
        // Walk back over type syntax to the `name :` or `name =` that
        // introduced this container, bounded to the same statement.
        let mut j = i;
        let mut steps = 0;
        while j > 0 && steps < 24 {
            j -= 1;
            steps += 1;
            let t = &toks[j];
            if t.is_punct(";") || t.is_punct("{") || t.is_punct("}") {
                break;
            }
            if (t.is_punct(":") || t.is_punct("=")) && j > 0 && toks[j - 1].kind == TokKind::Ident {
                let name = &toks[j - 1].text;
                if name != "mut" && name != "let" {
                    tracked.insert(name.clone());
                }
                break;
            }
        }
    }
    // Pass 2: one-step taint through let bindings.
    let mut i = 0;
    while i < toks.len() {
        if toks[i].is_ident("let") {
            let mut j = i + 1;
            if j < toks.len() && toks[j].is_ident("mut") {
                j += 1;
            }
            if j < toks.len() && toks[j].kind == TokKind::Ident {
                let bound = toks[j].text.clone();
                // Scan the initializer to the statement end.
                let mut k = j + 1;
                let mut tainted = false;
                while k < toks.len() && !toks[k].is_punct(";") && !toks[k].is_punct("{") {
                    if toks[k].kind == TokKind::Ident && tracked.contains(&toks[k].text) {
                        tainted = true;
                    }
                    k += 1;
                }
                if tainted {
                    tracked.insert(bound);
                }
                i = k;
                continue;
            }
        }
        i += 1;
    }
    tracked
}

fn check_map_iteration(f: &SourceFile, tracked: &BTreeSet<String>, findings: &mut Vec<Finding>) {
    const RULE: &str = "determinism/map-iteration";
    let toks = &f.tokens;
    for i in 0..toks.len() {
        // `name . method (` where name is tracked and method iterates.
        if toks[i].kind == TokKind::Ident
            && tracked.contains(&toks[i].text)
            && i + 2 < toks.len()
            && toks[i + 1].is_punct(".")
            && toks[i + 2].kind == TokKind::Ident
            && ITER_METHODS.contains(&toks[i + 2].text.as_str())
        {
            let line = toks[i].line;
            if f.in_test_code(line) || exempt(f, line, RULE) {
                continue;
            }
            findings.push(Finding::new(
                &f.rel,
                line,
                RULE,
                format!(
                    "iteration over hash-ordered `{}` via `.{}()` — order is \
                     nondeterministic; use a BTree container, sort first, or \
                     justify with `lint:allow(map-iteration)`",
                    toks[i].text,
                    toks[i + 2].text
                ),
            ));
        }
        // `for pat in [&[mut]] name` where name is tracked.
        if toks[i].is_ident("in") {
            let mut j = i + 1;
            while j < toks.len() && (toks[j].is_punct("&") || toks[j].is_ident("mut")) {
                j += 1;
            }
            if j < toks.len()
                && toks[j].kind == TokKind::Ident
                && tracked.contains(&toks[j].text)
                && !(j + 1 < toks.len() && toks[j + 1].is_punct("."))
            {
                let line = toks[j].line;
                if f.in_test_code(line) || exempt(f, line, RULE) {
                    continue;
                }
                findings.push(Finding::new(
                    &f.rel,
                    line,
                    RULE,
                    format!(
                        "`for` loop over hash-ordered `{}` — order is \
                         nondeterministic on the answer path",
                        toks[j].text
                    ),
                ));
            }
        }
    }
}

fn check_float_compares(f: &SourceFile, findings: &mut Vec<Finding>) {
    const RULE: &str = "determinism/float-compare";
    let toks = &f.tokens;
    for i in 0..toks.len() {
        let line = toks[i].line;
        if toks[i].is_ident("partial_cmp") {
            if f.in_test_code(line) || exempt(f, line, RULE) {
                continue;
            }
            findings.push(Finding::new(
                &f.rel,
                line,
                RULE,
                "`partial_cmp` on the answer path — NaN-incomparable values break \
                 total ordering; use `f64::total_cmp` (or justify with \
                 `lint:allow(float-compare)`)"
                    .to_string(),
            ));
            continue;
        }
        let is_cmp = toks[i].is_punct("<")
            || toks[i].is_punct(">")
            || toks[i].is_punct("<=")
            || toks[i].is_punct(">=");
        if !is_cmp {
            continue;
        }
        // Is a distance value in the comparison window? Look ±4
        // tokens for a `distance` ident used as a value (field access
        // or local) — `fn distance(`/`.distance(` declarations and
        // calls are not values, and generic bounds like
        // `D: Distance<S>>` put `>` puncts right next to them.
        let lo = i.saturating_sub(4);
        let hi = (i + 5).min(toks.len());
        let distance_near = (lo..hi).any(|j| {
            toks[j].kind == TokKind::Ident
                && toks[j].text == "distance"
                && !(j > 0 && toks[j - 1].is_ident("fn"))
                && !toks.get(j + 1).is_some_and(|n| n.is_punct("("))
        });
        if !distance_near {
            continue;
        }
        if f.in_test_code(line) || exempt(f, line, RULE) {
            continue;
        }
        // Audited escape hatches on the same source line.
        let text = f
            .lines
            .get((line - 1) as usize)
            .map(String::as_str)
            .unwrap_or("");
        if text.contains("ELIMINATION_SLACK") || text.contains("total_cmp") {
            continue;
        }
        findings.push(Finding::new(
            &f.rel,
            line,
            RULE,
            format!(
                "raw `{}` comparison involving a distance value — ties and NaN \
                 ordering are platform/NaN-dependent; compare via \
                 `f64::total_cmp` or the audited slack band",
                toks[i].text
            ),
        ));
    }
}

/// Allowlisted enclosing fn, or explicit `lint:allow` annotation.
fn exempt(f: &SourceFile, line: u32, rule: &str) -> bool {
    if let Some(name) = f.enclosing_fn(line) {
        if ALLOWED_FNS.contains(&name) {
            return true;
        }
    }
    f.allowed(line, rule)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::SourceFile;

    fn run_on(crate_name: &str, src: &str) -> Vec<Finding> {
        let f = SourceFile::parse("crates/x/src/lib.rs".into(), crate_name.into(), src);
        let mut out = Vec::new();
        run(&[f], &mut out);
        out
    }

    #[test]
    fn map_iteration_is_flagged_in_answer_path_crates() {
        let src = "use std::collections::HashMap;\nfn f(m: &HashMap<u32, u32>) {\n    for (k, v) in m.iter() { use_it(k, v); }\n}\n";
        let out = run_on("search", src);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].rule, "determinism/map-iteration");
        assert_eq!(out[0].line, 3);
    }

    #[test]
    fn keyed_lookup_is_allowed() {
        let src = "use std::collections::HashMap;\nfn f(m: &HashMap<u32, u32>) -> Option<&u32> {\n    m.get(&1)\n}\n";
        assert!(run_on("serve", src).is_empty());
    }

    #[test]
    fn taint_through_lock_guard_is_caught() {
        let src = "struct S { pending: Mutex<HashMap<u64, u64>> }\nimpl S {\n    fn f(&self) {\n        let mut map = self.pending.lock().unwrap();\n        for (id, tx) in map.drain() { go(id, tx); }\n    }\n}\n";
        let out = run_on("serve", src);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].line, 5);
    }

    #[test]
    fn allow_annotation_suppresses() {
        let src = "struct S { pending: Mutex<HashMap<u64, u64>> }\nimpl S {\n    fn f(&self) {\n        let mut map = self.pending.lock().unwrap();\n        // lint:allow(map-iteration) — every entry gets the same error\n        for (id, tx) in map.drain() { go(id, tx); }\n    }\n}\n";
        assert!(run_on("serve", src).is_empty());
    }

    #[test]
    fn non_answer_path_crates_are_skipped() {
        let src = "use std::collections::HashMap;\nfn f(m: &HashMap<u32, u32>) {\n    for k in m.keys() { go(k); }\n}\n";
        assert!(run_on("stats", src).is_empty());
    }

    #[test]
    fn partial_cmp_is_flagged_outside_allowlist() {
        let src = "fn worse(a: f64, b: f64) -> bool {\n    a.partial_cmp(&b).is_some()\n}\n";
        let out = run_on("core", src);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].rule, "determinism/float-compare");
    }

    #[test]
    fn allowlisted_fn_may_compare() {
        let src = "fn ordering(a: f64, b: f64) -> bool {\n    a.partial_cmp(&b) == Some(core::cmp::Ordering::Less)\n}\n";
        assert!(run_on("core", src).is_empty());
    }

    #[test]
    fn distance_relational_compare_is_flagged() {
        let src = "fn prune(nb: &Neighbour, r: f64) -> bool {\n    nb.distance < r\n}\n";
        let out = run_on("search", src);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].rule, "determinism/float-compare");
    }

    #[test]
    fn slack_band_compare_is_exempt() {
        let src = "fn prune(d: f64, r: f64) -> bool {\n    let distance = d;\n    distance < r + ELIMINATION_SLACK\n}\n";
        assert!(run_on("search", src).is_empty());
    }

    #[test]
    fn test_code_is_skipped() {
        let src = "#[cfg(test)]\nmod tests {\n    fn t(m: &std::collections::HashMap<u32, u32>) {\n        for k in m.keys() { go(k); }\n    }\n}\n";
        assert!(run_on("search", src).is_empty());
    }
}
