//! The driver's contract with CI, checked from outside: the trajectory
//! artifact is strict JSON in the shared schema, and the `bench` binary
//! turns everything CI must not miss into its exit status — a failed
//! artifact write (1), a malformed environment knob or an unknown
//! experiment (2).

use std::path::PathBuf;
use std::process::{Command, Output};

use bench::report::{failures, Bound, Table};

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bench-driver-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_file(&dir);
    dir
}

/// A strict RFC 8259 reader: panics on anything a conforming parser would
/// reject and returns the document re-serialized without whitespace.
fn strict_json(text: &str) -> String {
    struct P<'a> {
        b: &'a [u8],
        at: usize,
        out: String,
    }
    impl P<'_> {
        fn peek(&self) -> u8 {
            *self.b.get(self.at).expect("unexpected end of document")
        }
        fn ws(&mut self) {
            while self.at < self.b.len() && b" \n\r\t".contains(&self.b[self.at]) {
                self.at += 1;
            }
        }
        fn take(&mut self, n: usize) {
            self.out
                .push_str(std::str::from_utf8(&self.b[self.at..self.at + n]).unwrap());
            self.at += n;
        }
        fn digits(&mut self) {
            assert!(
                self.peek().is_ascii_digit(),
                "digit expected at {}",
                self.at
            );
            while self.at < self.b.len() && self.b[self.at].is_ascii_digit() {
                self.take(1);
            }
        }
        fn number(&mut self) {
            if self.peek() == b'-' {
                self.take(1);
            }
            if self.peek() == b'0' {
                self.take(1);
            } else {
                self.digits();
            }
            if self.b.get(self.at) == Some(&b'.') {
                self.take(1);
                self.digits();
            }
            if matches!(self.b.get(self.at), Some(b'e' | b'E')) {
                self.take(1);
                if matches!(self.peek(), b'+' | b'-') {
                    self.take(1);
                }
                self.digits();
            }
        }
        fn string(&mut self) {
            assert_eq!(self.peek(), b'"', "string expected at {}", self.at);
            self.take(1);
            while self.peek() != b'"' {
                assert!(self.peek() >= 0x20, "raw control character in a string");
                if self.peek() == b'\\' {
                    self.take(1);
                    assert!(b"\"\\/bfnrtu".contains(&self.peek()), "bad escape");
                    if self.peek() == b'u' {
                        let hex = &self.b[self.at + 1..self.at + 5];
                        assert!(hex.iter().all(u8::is_ascii_hexdigit), "bad \\u escape");
                    }
                }
                self.take(1);
            }
            self.take(1);
        }
        fn value(&mut self) {
            self.ws();
            match self.peek() {
                open @ (b'{' | b'[') => {
                    let close = open + 2; // ASCII: '{'+2 = '}', '['+2 = ']'
                    self.take(1);
                    self.ws();
                    while self.peek() != close {
                        if open == b'{' {
                            self.ws();
                            self.string();
                            self.ws();
                            assert_eq!(self.peek(), b':');
                            self.take(1);
                        }
                        self.value();
                        self.ws();
                        if self.peek() == b',' {
                            self.take(1);
                            self.ws();
                            assert_ne!(self.peek(), close, "trailing comma");
                        } else {
                            assert_eq!(self.peek(), close, "',' or close expected");
                        }
                    }
                    self.take(1);
                }
                b'"' => self.string(),
                b't' | b'f' | b'n' => {
                    let word = ["true", "false", "null"]
                        .into_iter()
                        .find(|w| self.b[self.at..].starts_with(w.as_bytes()))
                        .expect("bad literal");
                    self.take(word.len());
                }
                _ => self.number(),
            }
        }
    }
    let mut p = P {
        b: text.as_bytes(),
        at: 0,
        out: String::new(),
    };
    p.value();
    p.ws();
    assert_eq!(p.at, text.len(), "trailing bytes after the document");
    p.out
}

#[test]
fn trajectory_json_is_strict_and_carries_the_csv_cells() {
    let mut t = Table::new("driver_test", &["name", "n", "x"]).trajectory("driver_test");
    t.meta("size", 8192);
    t.meta("note", "a \"quoted\\\" tab\there");
    t.headline("speedup", "4.15");
    t.row(&[&"image_8k", &1, &"345.25"]);
    t.row(&[&"inf", &"007", &"-1.5e3"]);
    t.gate("speedup", 4.5, Bound::AtLeast(3.0));
    t.gate("unbounded ratio", f64::INFINITY, Bound::AtLeast(2.0));
    assert!(failures().is_empty(), "passing gates record no failure");
    t.gate("leaks", 2.0, Bound::AtMost(0.0));
    assert_eq!(failures().len(), 1, "a failed gate must fail the driver");

    let dir = scratch("json");
    let written = t.write_into(&dir).unwrap();
    assert_eq!(
        written,
        [
            dir.join("driver_test.csv"),
            dir.join("BENCH_driver_test.json")
        ]
    );
    let csv = std::fs::read_to_string(&written[0]).unwrap();
    assert_eq!(csv, "name,n,x\nimage_8k,1,345.25\ninf,007,-1.5e3\n");
    let json = std::fs::read_to_string(&written[1]).unwrap();
    assert_eq!(
        strict_json(&json),
        "{\"bench\":\"driver_test\",\
         \"meta\":{\"size\":8192,\"note\":\"a \\\"quoted\\\\\\\" tab\\u0009here\"},\
         \"headline\":{\"speedup\":4.15},\
         \"gates\":[{\"name\":\"speedup\",\"observed\":4.5,\"bound\":3,\"pass\":true},\
         {\"name\":\"unbounded ratio\",\"observed\":null,\"bound\":2,\"pass\":true},\
         {\"name\":\"leaks\",\"observed\":2,\"bound\":0,\"pass\":false}],\
         \"columns\":[\"name\",\"n\",\"x\"],\
         \"rows\":[[\"image_8k\",1,345.25],[\"inf\",\"007\",-1.5e3]]}"
    );
    std::fs::remove_dir_all(dir).ok();
}

/// Run the driver from `cwd` without cargo's `CARGO_MANIFEST_DIR`, so its
/// results directory is `cwd/results`.
fn bench(cwd: &std::path::Path, args: &[&str], env: &[(&str, &str)]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_bench"))
        .args(args)
        .current_dir(cwd)
        .env_remove("CARGO_MANIFEST_DIR")
        .env_remove("SIM_THREADS")
        .env_remove("CHAOS_SEEDS")
        .envs(env.iter().copied())
        .output()
        .expect("spawn bench")
}

#[test]
fn a_failed_artifact_write_fails_the_run_and_names_the_path() {
    // A regular file where `results/` should be: unwritable even for
    // root, unlike a permission bit. CI diffs `results/` right after the
    // run; a swallowed write error would compare the stale committed file
    // with itself and pass.
    let cwd = scratch("unwritable");
    std::fs::create_dir_all(&cwd).unwrap();
    std::fs::write(cwd.join("results"), b"in the way").unwrap();
    let out = bench(&cwd, &["hw_translation"], &[]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(stderr.contains("xtra_hw_translation.csv"), "{stderr}");

    // Same run, writable directory: clean exit, file on disk.
    std::fs::remove_file(cwd.join("results")).unwrap();
    let out = bench(&cwd, &["hw_translation"], &[]);
    assert_eq!(out.status.code(), Some(0));
    assert!(cwd.join("results/xtra_hw_translation.csv").is_file());
    std::fs::remove_dir_all(cwd).ok();
}

#[test]
fn malformed_knobs_and_unknown_names_exit_2_before_any_work() {
    let cwd = scratch("usage");
    std::fs::create_dir_all(&cwd).unwrap();
    for (var, raw) in [
        ("SIM_THREADS", "0"),
        ("SIM_THREADS", "8 "),
        ("CHAOS_SEEDS", "abc"),
    ] {
        let out = bench(&cwd, &["hw_translation"], &[(var, raw)]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{var}={raw:?}: {stderr}");
        assert!(stderr.contains(var), "{stderr} must name {var}");
    }
    for args in [&["hw_translation", "fig99"][..], &[]] {
        let out = bench(&cwd, args, &[]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("shard_scaling"), "usage lists the registry");
    }
    assert!(!cwd.join("results").exists(), "nothing ran");

    let out = bench(&cwd, &["list"], &[("SIM_THREADS", "8")]);
    assert_eq!(out.status.code(), Some(0));
    let listing = String::from_utf8_lossy(&out.stdout);
    assert!(listing.contains("telemetry_overhead") && listing.contains("BENCH_slo_scale.json"));
    std::fs::remove_dir_all(cwd).ok();
}

/// Maximal runs of path, flag and identifier characters.
fn words(text: &str) -> Vec<&str> {
    let split = |c: char| !(c.is_ascii_alphanumeric() || "_./:-*<>".contains(c));
    let trimmed = text.split(split).map(|w| w.trim_end_matches(['.', ':']));
    trimmed.collect()
}

/// A target or experiment name; a flag or a placeholder like `<name>` is not.
fn is_name(w: &str) -> bool {
    let ok = |b: u8| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_';
    !w.is_empty() && w.bytes().all(ok)
}

/// The experiment names a line of code hands the driver: the words after
/// `bench` / `…/bench` (and the `--` of `cargo run -p bench --`).
fn bench_args(code: &str) -> Vec<&str> {
    let mut words = code.split_whitespace();
    let mut args = Vec::new();
    while let Some(cmd) = words.next() {
        if cmd == "bench" || cmd.ends_with("/bench") {
            let rest = words.clone().skip_while(|a| *a == "--");
            args.extend(rest.take_while(|a| is_name(a)));
        }
    }
    args
}

/// The `N` of every `§N` / `§N.M` right after a `DESIGN.md` in `text`
/// (`DESIGN.md §8, §12 / §13` names three).
fn design_refs(text: &str) -> Vec<u32> {
    let mut refs = Vec::new();
    for tail in text.split("DESIGN.md").skip(1) {
        let end = tail.find(|c: char| !(c.is_ascii_digit() || " \n§.,/`".contains(c)));
        for section in tail[..end.unwrap_or(tail.len())].split('§').skip(1) {
            let digits = section.split(|c: char| !c.is_ascii_digit()).next();
            refs.extend(digits.unwrap().parse::<u32>());
        }
    }
    refs
}

/// The identifier `s` starts with (empty if it starts with none).
fn ident(s: &str) -> &str {
    let end = s.find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'));
    &s[..end.unwrap_or(s.len())]
}

/// Every `Type::member` a piece of code names — `Wal::scan()`,
/// `dmnet::DmServer::{crash, restart}`, `Record::Checkpoint` — as
/// `(Type, member)`. A module path or a constant before the `::` is not a type.
fn type_members(code: &str) -> Vec<(&str, &str)> {
    let mut pairs = Vec::new();
    for (at, _) in code.match_indices("::") {
        let head = &code[..at];
        let ty = &head[head.len() - ident_rev(head)..];
        let camel = ty.starts_with(|c: char| c.is_ascii_uppercase())
            && ty.contains(|c: char| c.is_ascii_lowercase());
        if !camel {
            continue;
        }
        let tail = &code[at + 2..];
        let members = match tail.strip_prefix('{') {
            Some(list) => list.split('}').next().unwrap(),
            None => ident(tail),
        };
        let members = members.split(',').map(|m| ident(m.trim()));
        pairs.extend(members.filter(|m| !m.is_empty()).map(|m| (ty, m)));
    }
    pairs
}

/// Length of the identifier `s` ends with.
fn ident_rev(s: &str) -> usize {
    let start = s.rfind(|c: char| !(c.is_ascii_alphanumeric() || c == '_'));
    s.len() - start.map_or(0, |i| i + 1)
}

/// Whether Rust source `text` has an item, field or variant named `member`:
/// a line that, past its qualifiers, is `fn member…`, `const member…`,
/// `type member…` or starts with `member` itself.
fn has_member(text: &str, member: &str) -> bool {
    const QUALIFIERS: [&str; 6] = [
        "pub ",
        "pub(crate) ",
        "pub(super) ",
        "async ",
        "unsafe ",
        "fn ",
    ];
    text.lines().any(|line| {
        let mut line = line.trim_start();
        while let Some(rest) = QUALIFIERS.iter().find_map(|q| line.strip_prefix(q)) {
            line = rest;
        }
        let line = line.strip_prefix("const ").unwrap_or(line);
        let line = line.strip_prefix("type ").unwrap_or(line);
        ident(line) == member
    })
}

/// Whether Rust source `text` defines `ty` or implements something on it.
fn mentions_type(text: &str, ty: &str) -> bool {
    const BEFORE: [&str; 7] = ["struct ", "enum ", "trait ", "type ", "impl ", "> ", "for "];
    let defined = |(at, _): (usize, &str)| {
        BEFORE.iter().any(|b| text[..at].ends_with(b)) && ident(&text[at..]) == ty
    };
    text.match_indices(ty).any(defined)
}

/// Every artifact, experiment, path, DESIGN.md section, cargo target and
/// `Type::member` a document names exists, and every example is named by one.
#[test]
fn the_prose_names_only_what_exists() {
    const ROOTS: [&str; 6] = ["crates", "shims", "examples", "tests", "scripts", ".github"];
    const STD_TYPES: [&str; 3] = ["Duration", "BinaryHeap", "Arc"];
    let docs = "README.md DESIGN.md EXPERIMENTS.md docs/TUTORIAL.md .claude/skills/verify/SKILL.md";
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let exists = |rel: String| root.join(rel).exists();
    let listing = String::from_utf8(bench(&root, &["list"], &[]).stdout).unwrap();
    // The name column of `bench list` (`all` has a row), plus the two non-experiment verbs.
    let rows = listing.lines().filter(|row| row.starts_with("  "));
    let names = rows.filter_map(|row| row.trim_start_matches([' ', '*']).split(' ').next());
    let experiments: Vec<&str> = names.chain(["list", "scenario"]).collect();
    // The documents, then every Rust source under crates/, shims/ and examples/.
    let mut sources: Vec<PathBuf> = docs.split(' ').map(|doc| root.join(doc)).collect();
    sources.extend(rust_sources(&root, &["crates", "shims", "examples"]));
    let design = std::fs::read_to_string(root.join("DESIGN.md")).unwrap();
    // Where a type of ours is defined: the sources outside `examples/`.
    let is_lib = |p: &&PathBuf| {
        p.extension().is_some_and(|e| e == "rs") && !p.starts_with(root.join("examples"))
    };
    let read = |p: &PathBuf| std::fs::read_to_string(p).unwrap();
    let rust: Vec<String> = sources.iter().filter(is_lib).map(read).collect();
    let mut wrong = Vec::new();
    let mut prose = String::new();
    for path in &sources {
        let at = path.strip_prefix(&root).unwrap().display();
        let text = std::fs::read_to_string(path).unwrap();
        for n in design_refs(&text) {
            if !design.contains(&format!("\n## {n}. ")) {
                wrong.push(format!("{at}: DESIGN.md §{n} has no `## {n}.` heading"));
            }
        }
        if path.extension().is_some_and(|ext| ext == "rs") {
            continue;
        }
        let w = words(&text);
        for (i, word) in w.iter().enumerate() {
            let next = w.get(i + 1).copied().unwrap_or("");
            let file = word.rsplit('/').next().unwrap();
            let rel = word.split(':').next().unwrap();
            let named = file.ends_with(".csv") || file.starts_with("BENCH_");
            // Bench targets would live in `crates/bench`, examples in the root package.
            let missing = match *word {
                _ if word.contains(['*', '<']) => false, // a glob or a placeholder
                _ if named || word.starts_with("results/") => !exists(format!("results/{file}")),
                _ if ROOTS.contains(&rel.split('/').next().unwrap()) => !exists(rel.to_string()),
                "cargo" if next == "bench" => !exists("crates/bench/benches".to_string()),
                "--bench" if is_name(next) => !exists(format!("crates/bench/benches/{next}.rs")),
                "--example" if is_name(next) => !exists(format!("examples/{next}.rs")),
                _ => false,
            };
            if missing {
                wrong.push(format!("{at}: `{word} {next}` names nothing that exists"));
            }
        }
        // Code is what sits between backticks, fenced blocks included.
        let code = || text.split('`').skip(1).step_by(2);
        for arg in code().flat_map(str::lines).flat_map(bench_args) {
            if !experiments.contains(&arg) {
                wrong.push(format!("{at}: `bench {arg}` is not in `bench list`"));
            }
        }
        // A `Type::member` names a member found in a source that defines
        // `Type` or implements on it (types of `std` are not ours to check).
        for (ty, member) in code().flat_map(type_members) {
            let mut owners = rust.iter().filter(|src| mentions_type(src, ty));
            if !STD_TYPES.contains(&ty) && !owners.any(|src| has_member(src, member)) {
                wrong.push(format!("{at}: `{ty}::{member}` names no member of `{ty}`"));
            }
        }
        prose += &text;
    }
    for path in sources
        .iter()
        .filter(|p| p.starts_with(root.join("examples")))
    {
        let stem = path.file_stem().unwrap().to_str().unwrap();
        let cited = [format!("examples/{stem}.rs"), format!("--example {stem}")];
        if !cited.iter().any(|c| prose.contains(c)) {
            wrong.push(format!("examples/{stem}.rs is cited by no document"));
        }
    }
    assert!(wrong.is_empty(), "stale references:\n{}", wrong.join("\n"));
}

/// The text of the item that opens with `opener`, through its closing brace.
fn item<'a>(src: &'a str, opener: &str) -> &'a str {
    let from = src.find(opener).unwrap_or_else(|| panic!("no `{opener}`"));
    let mut depth = 0usize;
    for (i, c) in src[from..].char_indices() {
        match c {
            '{' => depth += 1,
            '}' if depth == 1 => return &src[from..=from + i],
            '}' => depth -= 1,
            _ => {}
        }
    }
    panic!("`{opener}` never closes");
}

/// A message is a head and a body (DESIGN.md §5): whatever puts a prefix in
/// front of a payload writes fixed-width fields into the head and attaches
/// the payload. Grep-level: none of the wire builders copies a slice it was
/// handed — the only byte copies they contain are of a field's own
/// `to_le_bytes()`.
#[test]
fn wire_builders_attach_a_payload_and_never_copy_it() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let read = |rel: &str| std::fs::read_to_string(root.join(rel)).unwrap();
    let (proto, value, codec) = (
        read("crates/dmnet/src/proto.rs"),
        read("crates/core/src/value.rs"),
        read("crates/apps/src/codec.rs"),
    );
    let builders = [
        ("proto::Writer", item(&proto, "impl Writer {")),
        ("proto::Response", item(&proto, "impl Response {")),
        ("Value::encode", item(&value, "pub fn encode(")),
        ("codec::op_value", item(&codec, "pub fn op_value(")),
    ];
    const COPIES: [&str; 4] = [
        "extend_from_slice(",
        "copy_from_slice(",
        "put_slice(",
        ".concat()",
    ];
    for (name, text) in builders {
        for line in text
            .lines()
            .filter(|l| COPIES.iter().any(|c| l.contains(c)))
        {
            assert!(
                line.contains("to_le_bytes()"),
                "{name} copies bytes it was handed: `{}`",
                line.trim()
            );
        }
    }
}

/// Every Rust source under the directories `dirs` of `root`.
fn rust_sources(root: &std::path::Path, dirs: &[&str]) -> Vec<PathBuf> {
    let mut dirs: Vec<PathBuf> = dirs.iter().map(|d| root.join(d)).collect();
    let mut out = Vec::new();
    while let Some(dir) = dirs.pop() {
        for path in std::fs::read_dir(dir).unwrap().map(|e| e.unwrap().path()) {
            match path.extension() {
                _ if path.is_dir() => dirs.push(path),
                Some(ext) if ext == "rs" => out.push(path),
                _ => {}
            }
        }
    }
    out
}

/// `(struct, field)` for every named field of every braced struct `src`
/// declares.
fn struct_fields(src: &str) -> Vec<(&str, &str)> {
    let mut out = Vec::new();
    for (at, _) in src.match_indices("struct ") {
        let name = ident(&src[at + "struct ".len()..]);
        let opens = src[at..].find(['{', ';', '(']).map(|i| at + i);
        let Some(open) = opens.filter(|&i| !name.is_empty() && src[i..].starts_with('{')) else {
            continue;
        };
        for line in item(&src[at..], &src[at..=open]).lines().skip(1) {
            let line = line.trim_start();
            let line = line.strip_prefix("pub ").unwrap_or(line);
            let field = ident(line);
            if !field.is_empty() && line[field.len()..].starts_with(": ") {
                out.push((name, field));
            }
        }
    }
    out
}

/// A plane of the DM pool is configured in one place, the server's config,
/// and a client finds out over the wire (DESIGN.md §15). Grep-level: the
/// cluster config re-declares no `DmServerConfig` field, the read lease is
/// a field of one struct and `fine_grained` of none, and the process
/// environment is read only where a set-but-unreadable value ends the run.
#[test]
fn a_plane_setting_is_declared_once_and_the_environment_read_strictly() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let at = |p: &PathBuf| p.strip_prefix(&root).unwrap().display().to_string();
    let read = |p: &PathBuf| (at(p), std::fs::read_to_string(p).unwrap());
    let sources: Vec<(String, String)> =
        rust_sources(&root, &["crates"]).iter().map(read).collect();
    let text_of = |rel: &str| &sources.iter().find(|(at, _)| at == rel).expect(rel).1;
    let declaring = |field: &str| -> Vec<&str> {
        let fields = sources.iter().flat_map(|(_, text)| struct_fields(text));
        let named = fields.filter(|&(_, f)| f == field);
        named.map(|(s, _)| s).collect()
    };
    let server = struct_fields(text_of("crates/dmnet/src/server.rs"));
    let server = server.iter().filter(|(s, _)| *s == "DmServerConfig");
    let server: Vec<&str> = server.map(|&(_, field)| field).collect();
    assert!(
        server.contains(&"lease_ttl") && server.contains(&"coherence"),
        "{server:?}"
    );
    for (s, field) in struct_fields(text_of("crates/apps/src/cluster.rs")) {
        assert!(
            !server.contains(&field),
            "`{s}::{field}` re-declares a `DmServerConfig` field"
        );
    }
    assert_eq!(declaring("read_lease"), ["CoherenceConfig"]);
    assert_eq!(declaring("fine_grained"), [""; 0]);

    let needle = ["env", "var"].join("::");
    let allowed = [
        ("crates/bench/src/pool.rs", "pub fn knobs("),
        ("crates/bench/src/report.rs", "pub fn results_dir("),
        ("crates/dmnet/src/wal.rs", "pub fn from_env("),
    ];
    for (at, text) in sources.iter().filter(|(_, text)| text.contains(&needle)) {
        let reader = allowed.iter().find(|(file, _)| file == at);
        let (_, opener) = reader.unwrap_or_else(|| panic!("{at} reads the environment"));
        assert_eq!(
            item(text, opener).matches(&needle).count(),
            text.matches(&needle).count(),
            "{at}"
        );
    }
}
