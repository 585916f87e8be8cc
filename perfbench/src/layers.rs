//! The traced run's in-process layer calls.
//!
//! After the end-to-end part of a traced run, the harness replays the
//! same generated inputs through each layer's public functions,
//! timing every call with a span. Each per-layer metric is a median
//! over those calls (or a count taken where the work happens).

use crate::discover_cli::{self, Planted};
use crate::gen::{self, Op, Unit};
use crate::serve_wl::{Done, ServeRun, CHECKPOINT_EVERY, READ_PROBES};
use crate::trace::{median, Tracer};
use crate::{metric, Metric};
use depkit_core::column::ColumnStore;
use depkit_core::delta::Delta;
use depkit_core::prelude::*;
use depkit_core::wal::{CommitFrame, FsyncPolicy, WalHeader, WalWriter};
use depkit_serve::{json, parse_request};
use depkit_solver::discover::{discover_store, minimize_cover, DiscoveryConfig};
use depkit_solver::incremental::durable::{CHECKPOINT_FILE, WAL_FILE};
use depkit_solver::incremental::{CatalogState, Durability, DurabilityConfig, Session};
use std::path::Path;

/// A committed unit's ops and its `(client, token)` tag, if any.
type TaggedOps<'a> = (&'a [Op], Option<(&'a str, &'a str)>);

fn stage(s: &mut Session, op: &Op) -> Result<(), CoreError> {
    let t = Tuple::ints(&op.row);
    if op.insert {
        s.stage_insert(op.rel, t)
    } else {
        s.stage_delete(op.rel, t)
    }
}

fn med(what: &str, xs: &[f64]) -> Result<f64, String> {
    if xs.is_empty() {
        Err(format!("traced run has no samples for {what}"))
    } else {
        Ok(median(xs))
    }
}

fn file_len(p: &Path) -> u64 {
    std::fs::metadata(p).map_or(0, |m| m.len())
}

/// Wire, protocol, JSON, catalog, durable and WAL metrics of a serve run.
pub fn serve(run: &ServeRun, t: &Tracer, dir: &Path) -> Result<Vec<Metric>, String> {
    // Replay order: the clients' finished units, interleaved round-robin.
    let mut units = Vec::new();
    let longest = run.clients.iter().map(|c| c.done.len()).max().unwrap_or(0);
    for i in 0..longest {
        for c in &run.clients {
            if let Some(d) = c.done.get(i) {
                units.push(d);
            }
        }
    }
    let commits: Vec<TaggedOps> = units
        .iter()
        .filter_map(|d| match &d.unit {
            Unit::Commit(ops) => Some((
                ops.as_slice(),
                d.tag.as_ref().map(|(c, tk)| (c.as_str(), tk.as_str())),
            )),
            _ => None,
        })
        .collect();

    let mut metrics = codec(run, &units, t)?;
    let cat = catalog(run, &units, t)?;
    let (durable_metrics, durable_txn_ns) = durable(run, &commits, t, dir)?;
    metrics.extend(wal(run, &commits, t, dir)?);

    // The wire: end-to-end p50 minus the in-process p50 of the same calls.
    let e2e_txn = run.samples(|c| &c.txn_ms);
    let inproc_txn = if run.write {
        &durable_txn_ns
    } else {
        &cat.txn_ns
    };
    let loop_query = run.samples(|c| &c.query_ms);
    let (e2e_query, inproc_query) = if loop_query.is_empty() {
        (&run.probe_query_ms, &cat.snapshot_query_ns)
    } else {
        (&loop_query, &cat.query_ns)
    };
    let wire = |what, e2e: &[f64], inproc: &[f64]| -> Result<f64, String> {
        Ok(med(what, e2e)? - med(what, inproc)? / 1e6)
    };
    metrics.push(metric(
        "server.wire_txn_ms",
        wire("txn", &e2e_txn, inproc_txn)?,
        "ms",
    ));
    metrics.push(metric(
        "server.wire_query_ms",
        wire("query", e2e_query, inproc_query)?,
        "ms",
    ));
    metrics.extend(cat.metrics);
    metrics.extend(durable_metrics);
    Ok(metrics)
}

/// `serve::protocol` and `serve::json` on the lines the clients exchanged.
fn codec(run: &ServeRun, units: &[&Done], t: &Tracer) -> Result<Vec<Metric>, String> {
    let mut requests: Vec<String> = Vec::new();
    for d in units {
        match (&d.unit, &d.tag) {
            (Unit::Health, _) => requests.push(r#"{"cmd":"health"}"#.to_owned()),
            (Unit::Commit(ops) | Unit::Probe(ops), tag) => {
                requests.push(r#"{"cmd":"begin"}"#.to_owned());
                requests.extend(ops.iter().map(Op::line));
                match (&d.unit, tag) {
                    (Unit::Commit(_), Some((c, tk))) => requests.push(format!(
                        r#"{{"cmd":"commit","client":"{c}","token":"{tk}"}}"#
                    )),
                    (Unit::Commit(_), None) => requests.push(r#"{"cmd":"commit"}"#.to_owned()),
                    _ => {
                        requests.push(r#"{"cmd":"query"}"#.to_owned());
                        requests.push(r#"{"cmd":"abort"}"#.to_owned());
                    }
                }
            }
        }
    }
    let mut parse_ns = Vec::new();
    for line in &requests {
        let (r, ns) = t.time("inproc.protocol.parse", 0, 0, || parse_request(line));
        r?;
        parse_ns.push(ns);
    }
    let replies: Vec<&String> = run
        .clients
        .iter()
        .flat_map(|c| c.replies.iter())
        .chain(run.probe_replies.iter())
        .collect();
    let (mut jparse_ns, mut jencode_ns) = (Vec::new(), Vec::new());
    for r in &replies {
        let (v, ns) = t.time("inproc.json.parse", 0, 0, || json::parse(r));
        let v = v?;
        jparse_ns.push(ns);
        let (_, ns) = t.time("inproc.json.encode", 0, 0, || v.to_string());
        jencode_ns.push(ns);
    }
    // Mean line size on the wire, newline included.
    let mean_len = |lens: Vec<usize>| {
        lens.iter().map(|l| l + 1).sum::<usize>() as f64 / lens.len().max(1) as f64
    };
    Ok(vec![
        metric("protocol.parse_ns", med("parse_request", &parse_ns)?, "ns"),
        metric("json.parse_ns", med("json::parse", &jparse_ns)?, "ns"),
        metric("json.encode_ns", med("Json display", &jencode_ns)?, "ns"),
        metric(
            "wire.req_bytes",
            mean_len(requests.iter().map(String::len).collect()),
            "bytes",
        ),
        metric(
            "wire.resp_bytes",
            mean_len(replies.iter().map(|r| r.len()).collect()),
            "bytes",
        ),
    ])
}

/// The in-memory catalog's metrics, plus the per-call samples the wire
/// metrics subtract.
struct CatalogReplay {
    metrics: Vec<Metric>,
    /// begin + stage + commit of each committed unit.
    txn_ns: Vec<f64>,
    /// Session queries, or the sessionless probes when there were none.
    query_ns: Vec<f64>,
    snapshot_query_ns: Vec<f64>,
}

/// `solver::incremental::catalog`, in memory: replay every unit.
fn catalog(run: &ServeRun, units: &[&Done], t: &Tracer) -> Result<CatalogReplay, String> {
    let e = |x: CoreError| x.to_string();
    let cat = CatalogState::new(&run.spec.schema(), &run.spec.sigma()).map_err(e)?;
    cat.seed(&run.spec.database()).map_err(e)?;
    let base_violations = cat.snapshot().violations().len();
    let (mut begin_ns, mut stage_ns, mut commit_ns, mut txn_ns) = (vec![], vec![], vec![], vec![]);
    let (mut query_ns, mut health_ns) = (vec![], vec![]);
    let (mut staged, mut applied) = (0u64, 0u64);
    for (i, d) in units.iter().enumerate() {
        let unit = t.open("inproc.unit", 0, i as u64);
        let p = unit.id;
        match &d.unit {
            Unit::Commit(ops) | Unit::Probe(ops) => {
                let (mut s, ns) = t.time("inproc.catalog.begin", p, 0, || cat.begin());
                begin_ns.push(ns);
                let mut total = ns;
                for op in ops {
                    let (r, ns) = t.time("inproc.catalog.stage", p, 0, || stage(&mut s, op));
                    r.map_err(e)?;
                    stage_ns.push(ns);
                    total += ns;
                }
                if let Unit::Commit(_) = &d.unit {
                    let tag = d.tag.as_ref().map(|(c, tk)| (c.as_str(), tk.as_str()));
                    let (out, ns) = t.time("inproc.catalog.commit", p, 0, || s.commit_tagged(tag));
                    let out = out.map_err(e)?;
                    commit_ns.push(ns);
                    txn_ns.push(total + ns);
                    staged += ops.len() as u64;
                    applied += (out.applied.inserted + out.applied.deleted) as u64;
                } else {
                    let (_, ns) = t.time("inproc.catalog.query", p, 0, || s.violations());
                    query_ns.push(ns);
                    s.abort();
                }
            }
            Unit::Health => {
                let (_, ns) = t.time("inproc.catalog.health", p, 0, || cat.snapshot().health());
                health_ns.push(ns);
            }
        }
        t.close(unit);
    }
    // The in-process side of the sessionless read probes.
    let (mut snapshot_query_ns, mut snapshot_health_ns) = (vec![], vec![]);
    for _ in 0..READ_PROBES {
        let (_, ns) = t.time("inproc.catalog.query", 0, 0, || cat.snapshot().violations());
        snapshot_query_ns.push(ns);
        let (_, ns) = t.time("inproc.catalog.health", 0, 0, || cat.snapshot().health());
        snapshot_health_ns.push(ns);
    }
    if query_ns.is_empty() {
        query_ns = snapshot_query_ns.clone();
    }
    if health_ns.is_empty() {
        health_ns = snapshot_health_ns;
    }
    Ok(CatalogReplay {
        metrics: vec![
            metric("catalog.begin_ns", med("begin", &begin_ns)?, "ns"),
            metric("catalog.stage_ns", med("stage", &stage_ns)?, "ns"),
            metric("catalog.commit_ns", med("commit", &commit_ns)?, "ns"),
            metric(
                "catalog.applied_ratio",
                applied as f64 / staged.max(1) as f64,
                "ratio",
            ),
            metric("catalog.query_ns", med("query", &query_ns)?, "ns"),
            metric("catalog.health_ns", med("health", &health_ns)?, "ns"),
            metric("catalog.base_violations", base_violations as f64, "count"),
        ],
        txn_ns,
        query_ns,
        snapshot_query_ns,
    })
}

/// `solver::incremental::durable` under `--fsync always`: replay the
/// committed units with the server's checkpoint cadence, then recover.
/// Also returns begin + stage + commit of each unit.
fn durable(
    run: &ServeRun,
    commits: &[TaggedOps],
    t: &Tracer,
    dir: &Path,
) -> Result<(Vec<Metric>, Vec<f64>), String> {
    let e = |x: CoreError| x.to_string();
    let (schema, sigma) = (run.spec.schema(), run.spec.sigma());
    let ddir = dir.join("inproc-data");
    let mut cfg = DurabilityConfig::new(&ddir);
    cfg.fsync = FsyncPolicy::Always;
    cfg.checkpoint_every = 0;
    let (cat, dur, _) = Durability::open(&schema, &sigma, cfg.clone()).map_err(e)?;
    cat.seed(&run.spec.database()).map_err(e)?;
    dur.checkpoint(&cat).map_err(e)?;
    let (wal, ckpt) = (ddir.join(WAL_FILE), ddir.join(CHECKPOINT_FILE));
    let (mut commit_ns, mut txn_ns, mut ckpt_ms) = (vec![], vec![], vec![]);
    let (mut written, mut op_bytes) = (0u64, 0u64);
    // Returns the checkpoint's duration (ms) and the bytes it wrote.
    let checkpoint = |cat: &CatalogState, dur: &Durability| -> Result<(f64, u64), String> {
        let (r, ns) = t.time("inproc.durable.checkpoint", 0, 0, || dur.checkpoint(cat));
        r.map_err(e)?;
        Ok((ns / 1e6, file_len(&ckpt) + file_len(&wal)))
    };
    for (i, (ops, tag)) in commits.iter().enumerate() {
        let before = file_len(&wal);
        let unit = t.open("inproc.durable.txn", 0, i as u64);
        let (mut s, mut total) = t.time("inproc.durable.begin", unit.id, 0, || cat.begin());
        for op in ops.iter() {
            let (r, ns) = t.time("inproc.durable.stage", unit.id, 0, || stage(&mut s, op));
            r.map_err(e)?;
            total += ns;
            op_bytes += op.line().len() as u64 + 1;
        }
        let (r, ns) = t.time("inproc.durable.commit", unit.id, 0, || {
            s.commit_tagged(*tag)
        });
        r.map_err(e)?;
        t.close(unit);
        commit_ns.push(ns);
        txn_ns.push(total + ns);
        written += file_len(&wal) - before;
        if (i as u64 + 1).is_multiple_of(CHECKPOINT_EVERY) {
            let (ms, bytes) = checkpoint(&cat, &dur)?;
            ckpt_ms.push(ms);
            written += bytes;
        }
    }
    let rows = cat.total_rows();
    drop((cat, dur));
    let (reopened, ns) = t.time("inproc.durable.recovery", 0, 0, || {
        Durability::open(&schema, &sigma, cfg.clone())
    });
    let recovery_ms = ns / 1e6;
    let (cat, dur, _) = reopened.map_err(e)?;
    if cat.total_rows() != rows {
        return Err(format!(
            "in-process recovery holds {} rows, expected {rows}",
            cat.total_rows()
        ));
    }
    let cadence = ckpt_ms.len();
    if cadence == 0 {
        // Too few commits for the cadence: time one checkpoint anyway,
        // leaving the count and the write volume to the cadence alone.
        ckpt_ms.push(checkpoint(&cat, &dur)?.0);
    }
    let metrics = vec![
        metric(
            "durable.commit_ns",
            med("durable commit", &commit_ns)?,
            "ns",
        ),
        metric("durable.checkpoint_ms", med("checkpoint", &ckpt_ms)?, "ms"),
        metric("durable.checkpoints", cadence as f64, "count"),
        metric(
            "durable.write_amp",
            written as f64 / op_bytes.max(1) as f64,
            "ratio",
        ),
        metric("durable.recovery_ms", recovery_ms, "ms"),
    ];
    Ok((metrics, txn_ns))
}

/// `core::wal` on its own: append every committed unit's frame under
/// policy never, then time the fsync separately.
fn wal(
    run: &ServeRun,
    commits: &[TaggedOps],
    t: &Tracer,
    dir: &Path,
) -> Result<Vec<Metric>, String> {
    let header = WalHeader {
        base_gen: 0,
        schema: run.spec.schemes.iter().map(ToString::to_string).collect(),
        sigma: run.spec.deps.iter().map(ToString::to_string).collect(),
    };
    let path = dir.join("wal-bench.log");
    let mut w = WalWriter::create(&path, &header, FsyncPolicy::Never).map_err(|x| x.to_string())?;
    let (mut append_ns, mut sync_ns) = (vec![], vec![]);
    for (i, (ops, tag)) in commits.iter().enumerate() {
        let mut delta = Delta::new();
        for op in ops.iter() {
            if op.insert {
                delta.insert(op.rel, Tuple::ints(&op.row));
            } else {
                delta.delete(op.rel, Tuple::ints(&op.row));
            }
        }
        let (client, token) = tag.unwrap_or(("", ""));
        let frame = CommitFrame {
            generation: i as u64 + 1,
            client: client.to_owned(),
            token: token.to_owned(),
            delta,
        };
        let (r, ns) = t.time("inproc.wal.append", 0, 0, || w.append_commit(&frame));
        r.map_err(|x| x.to_string())?;
        append_ns.push(ns);
        let (r, ns) = t.time("inproc.wal.sync", 0, 0, || w.sync());
        r.map_err(|x| x.to_string())?;
        sync_ns.push(ns);
    }
    Ok(vec![
        metric("wal.append_ns", med("wal append", &append_ns)?, "ns"),
        metric("wal.sync_ns", med("wal sync", &sync_ns)?, "ns"),
    ])
}

/// CLI parse, column compile and discovery metrics of a serve run's seed
/// spec, under `discover_cli::config` (tolerant on the planted seed);
/// spill counters from a second run under a tenth of its footprint.
/// Also returns the failures of the `depkit discover` gates.
pub fn discover(
    run: &ServeRun,
    depkit: &Path,
    t: &Tracer,
    dir: &Path,
) -> Result<(Vec<Metric>, Vec<String>), String> {
    let (spec, spec_path) = (&run.spec, run.spec_path.as_path());
    let planted = !run.write;
    let cfg = discover_cli::config(planted);
    let spill_dir = dir.join("spill");
    std::fs::create_dir_all(&spill_dir).map_err(|e| e.to_string())?;
    let spill_cfg = discover_cli::spill_config(gen::distinct_footprint(spec), &spill_dir);
    // `depkit keys <spec> EMP` is almost all spec parsing.
    let args = [
        "keys".to_owned(),
        spec_path.display().to_string(),
        "EMP".to_owned(),
    ];
    let (r, _) = t.time("cli.keys", 0, 0, || discover_cli::invoke(depkit, &args));
    let (_, parse_s) = r?;
    let db = spec.database();
    let (store, compile_ns) = t.time("inproc.column.compile", 0, 0, || ColumnStore::new(&db));
    drop(db);
    let (found, total_ns) = t.time("inproc.discover.store", 0, 0, || {
        discover_store(&spec.schema(), &store, &cfg)
    });
    let found = found.map_err(|x| x.to_string())?;
    let (spilled, _) = t.time("inproc.discover.spill", 0, 0, || {
        discover_store(&spec.schema(), &store, &spill_cfg)
    });
    let spill = spilled.map_err(|x| x.to_string())?.spill;
    let cover: Vec<String> = found.cover.iter().map(ToString::to_string).collect();
    let exact = if planted {
        let exact = discover_store(&spec.schema(), &store, &DiscoveryConfig::default());
        let exact = exact.map_err(|x| x.to_string())?;
        exact.cover.iter().map(ToString::to_string).collect()
    } else {
        cover.clone()
    };
    drop(store);
    // Minimize exactly what the pipeline minimized: the exactly
    // satisfied part of `raw`.
    let exactly: Vec<Dependency> = found
        .raw
        .iter()
        .filter(|d| !found.scored.iter().any(|s| s.dep == **d && s.misses > 0))
        .cloned()
        .collect();
    let (_, min_ns) = t.time("inproc.discover.minimize", 0, 0, || {
        minimize_cover(&exactly, &cfg)
    });
    let fk = planted.then(|| Planted {
        misses: gen::PLANTED_DANGLING as u64,
        support: spec
            .rels
            .iter()
            .find(|(rel, _)| *rel == "EMP")
            .map_or(0, |(_, rows)| rows.len() as u64),
    });
    let failures = discover_cli::gates(depkit, spec_path, &cfg, &spill_cfg, &cover, &exact, fk)?;
    let s = &found.stats;
    let metrics = vec![
        metric("cli.parse_s", parse_s, "s"),
        metric("column.compile_ms", compile_ns / 1e6, "ms"),
        metric("spill.bytes_spilled", spill.bytes_spilled as f64, "bytes"),
        metric("spill.runs_written", spill.runs_written as f64, "count"),
        metric("spill.merge_passes", spill.merge_passes as f64, "count"),
        metric("discover.mine_ms", (total_ns - min_ns) / 1e6, "ms"),
        metric("discover.minimize_ms", min_ns / 1e6, "ms"),
        metric("discover.fd_candidates", s.fd_candidates as f64, "count"),
        metric("discover.ind_candidates", s.ind_candidates as f64, "count"),
        metric("discover.raw", found.raw.len() as f64, "count"),
        metric("discover.cover", found.cover.len() as f64, "count"),
        metric("discover.scored", found.scored.len() as f64, "count"),
    ];
    Ok((metrics, failures))
}
