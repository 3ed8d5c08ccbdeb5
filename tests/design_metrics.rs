//! DESIGN.md §9's metric table is the metric names the code registers,
//! kinds included, in both directions: every `# TYPE` family a fresh
//! service, a node (counters, key cache, stage histograms) and a session
//! server expose has a row, and every row names a family one of them
//! exposes. The scope list names every registry's scope.

use std::collections::BTreeMap;
use std::sync::Arc;

use heap::runtime::{
    insecure_deterministic_setup, BootstrapService, NodeKeyStore, NodeTelemetry, ParamPreset,
    RuntimeConfig, SessionServer,
};
use heap_telemetry::Exposition;

/// §9 of DESIGN.md, up to the next top-level heading.
fn section_9() -> String {
    let design = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/DESIGN.md"))
        .expect("read DESIGN.md");
    let start = design.find("\n## 9.").expect("DESIGN.md has a §9");
    let rest = &design[start + 1..];
    let end = rest.find("\n## ").unwrap_or(rest.len());
    rest[..end].to_string()
}

/// `a_{x,y}_b` → `a_x_b`, `a_y_b`; a brace group holding `=` is a label
/// set and names no family, so it is dropped.
fn expand(name: &str) -> Vec<String> {
    let Some(open) = name.find('{') else {
        return vec![name.to_string()];
    };
    let close = open + name[open..].find('}').expect("closed brace group");
    let (head, group, tail) = (&name[..open], &name[open + 1..close], &name[close + 1..]);
    if group.contains('=') {
        return expand(&format!("{head}{tail}"));
    }
    group
        .split(',')
        .flat_map(|part| expand(&format!("{head}{part}{tail}")))
        .collect()
}

/// Family → kind from the table rows of §9 (`| \`name\` | kind | … |`).
fn documented(section: &str) -> BTreeMap<String, String> {
    let mut families = BTreeMap::new();
    for row in section.lines().filter(|l| l.starts_with("| `")) {
        let cells: Vec<&str> = row.split(" | ").collect();
        let name = cells[0].trim_start_matches("| ").trim_matches('`');
        for family in expand(&name.replace("\\|", "|")) {
            let kind = cells[1].trim().to_string();
            assert!(
                families.insert(family.clone(), kind).is_none(),
                "{family} has two rows"
            );
        }
    }
    families
}

/// Family → kind from the `# TYPE` lines of `text`.
fn exposed(text: &str, into: &mut BTreeMap<String, String>) {
    for line in text.lines() {
        if let Some(ty) = line.strip_prefix("# TYPE ") {
            let (name, kind) = ty.split_once(' ').expect("# TYPE name kind");
            into.insert(name.to_string(), kind.to_string());
        }
    }
}

#[test]
fn design_section_9_lists_every_registered_metric() {
    let setup = insecure_deterministic_setup(ParamPreset::Tiny, 9);
    let service = Arc::new(
        BootstrapService::start(
            Arc::clone(&setup.ctx),
            Arc::clone(&setup.boot),
            RuntimeConfig::default(),
        )
        .expect("start service"),
    );
    let sessions = SessionServer::serve("127.0.0.1:0", Arc::clone(&service)).expect("bind");
    let node = NodeTelemetry::new();
    let registries: Vec<_> = node
        .registries(&NodeKeyStore::default(), None)
        .into_iter()
        .chain([Arc::clone(sessions.metrics())])
        .collect();

    let mut code = BTreeMap::new();
    exposed(&service.exposition().render_prometheus(), &mut code);
    let text = registries
        .iter()
        .fold(Exposition::new(), Exposition::with_registry)
        .render_prometheus();
    exposed(&text, &mut code);

    let section = section_9();
    let doc = documented(&section);
    let missing: Vec<_> = code
        .iter()
        .filter(|(n, k)| doc.get(*n) != Some(k))
        .collect();
    let stale: Vec<_> = doc
        .iter()
        .filter(|(n, k)| code.get(*n) != Some(k))
        .collect();
    assert!(
        missing.is_empty(),
        "registered, not in §9 (or another kind): {missing:?}"
    );
    assert!(
        stale.is_empty(),
        "in §9, not registered (or another kind): {stale:?}"
    );

    let at = section
        .find("scope labels")
        .expect("§9 lists the registry scopes");
    let scopes = section[at..].split("\n\n").next().expect("a paragraph");
    let scope_of = |r: &Arc<heap_telemetry::Registry>| format!("`{}`", r.scope());
    for scope in registries.iter().chain([service.metrics()]).map(scope_of) {
        assert!(
            scopes.contains(&scope),
            "scope {scope} missing from: {scopes}"
        );
    }
    drop(sessions);
    service.shutdown();
}
