//! Per-layer metrics of a traced execution.
//!
//! A [`LayerSample`] gathers what one traced execution left behind: the
//! unit spans and sink/file timings from [`crate::trace`], the event logs
//! the program writes (`probe`, `wave`, `escalation`, `fsync`, `claim`
//! events), the output rows, and the durable files in the output
//! directory. [`metrics`] turns the samples of a run into the reported
//! per-layer metrics: counts from the first sample (checked to repeat
//! exactly in every other), times as medians over samples.
//!
//! Rounds come from `RunReport.rounds` (the `rounds` field of each output
//! row) for campaign rows and from wrapped `plan_into` calls for frontier
//! probes: frontier `row` events carry `rounds: 0` and the engine's own
//! counters reach no public surface.

use std::path::Path;
use std::time::Duration;

use emac_core::campaign::json::Json;
use emac_core::obs::ObsEvent;

use crate::sys::{high_quantile, median};
use crate::trace::{IoStats, UnitCounts, UnitSpan};
use crate::workload::{Inputs, Outcome, Workload, THREADS};
use crate::Metric;

/// Totals over the rows of a campaign output.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct RowTotals {
    rows: u64,
    rounds: u64,
    max_queue: u64,
    backlog: u64,
}

/// Totals over the event logs of an execution.
#[derive(Clone, Debug, Default)]
struct EventTotals {
    probes: u64,
    lanes: u64,
    waves: u64,
    escalations: u64,
    claims: u64,
    steals: u64,
    fsync_us: Vec<u64>,
}

/// Durable records in the output directory: each `done`, `probe`, `row`
/// and `claim` line and each lease file is written with its own fsync.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct JournalTotals {
    records: u64,
    bytes: u64,
}

/// What one traced execution left behind.
#[derive(Clone, Debug)]
pub struct LayerSample {
    workload: Workload,
    horizon: u64,
    /// Unit spans of the execution.
    pub spans: Vec<UnitSpan>,
    io: IoStats,
    wall: Duration,
    maps_ns: u64,
    merge_ns: u64,
    map_rows: u64,
    rows: RowTotals,
    events: EventTotals,
    journal: JournalTotals,
}

fn walk(dir: &Path, visit: &mut dyn FnMut(&Path) -> Result<(), String>) -> Result<(), String> {
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries {
        let path = entry.map_err(|e| format!("{}: {e}", dir.display()))?.path();
        if path.is_dir() {
            walk(&path, visit)?;
        } else {
            visit(&path)?;
        }
    }
    Ok(())
}

fn row_totals(output: &[u8]) -> Result<RowTotals, String> {
    let text = std::str::from_utf8(output).map_err(|e| format!("output: {e}"))?;
    let mut t = RowTotals::default();
    for line in text.lines() {
        let report = Json::parse(line)?;
        let report = report.get("report").ok_or("output row without a report")?;
        let field =
            |k: &str| report.get(k).and_then(Json::as_u64).ok_or(format!("row without {k}"));
        t.rows += 1;
        t.rounds += field("rounds")?;
        t.max_queue = t.max_queue.max(field("max_queue")?);
        t.backlog += field("injected")? - field("delivered")?;
    }
    Ok(t)
}

impl LayerSample {
    /// Gather one traced execution's sample from its outcome, spans, sink
    /// timings and output directory.
    pub fn collect(
        inputs: &Inputs,
        outcome: &Outcome,
        spans: Vec<UnitSpan>,
        io: IoStats,
        wall: Duration,
        dir: &Path,
    ) -> Result<Self, String> {
        let mut events = EventTotals::default();
        let mut journal = JournalTotals::default();
        walk(dir, &mut |path| {
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or_default();
            if name.ends_with("events.jsonl") {
                let text = std::fs::read_to_string(path)
                    .map_err(|e| format!("{}: {e}", path.display()))?;
                for line in text.lines() {
                    match ObsEvent::parse_line(line)? {
                        ObsEvent::Probe { lanes, .. } => {
                            events.probes += 1;
                            events.lanes += lanes;
                        }
                        ObsEvent::Wave { .. } => events.waves += 1,
                        ObsEvent::Escalation { .. } => events.escalations += 1,
                        ObsEvent::Claim { stolen, .. } => {
                            events.claims += 1;
                            events.steals += u64::from(stolen);
                        }
                        ObsEvent::Fsync { wall_us } => events.fsync_us.push(wall_us),
                        _ => {}
                    }
                }
                return Ok(());
            }
            let meta = std::fs::metadata(path).map_err(|e| format!("{}: {e}", path.display()))?;
            journal.bytes += meta.len();
            if name.ends_with(".lease") {
                journal.records += 1;
            } else if name.ends_with(".ckpt") || name == "claims.log" {
                let text = std::fs::read_to_string(path)
                    .map_err(|e| format!("{}: {e}", path.display()))?;
                journal.records += text
                    .lines()
                    .filter(|l| {
                        matches!(l.split(' ').next(), Some("done" | "probe" | "row" | "claim"))
                    })
                    .count() as u64;
            }
            Ok(())
        })?;
        let (rows, map_rows) = if inputs.workload.probes() {
            (
                RowTotals::default(),
                String::from_utf8_lossy(&outcome.output)
                    .lines()
                    .filter(|l| !l.starts_with('n'))
                    .count() as u64,
            )
        } else {
            (row_totals(&outcome.output)?, 0)
        };
        Ok(Self {
            workload: inputs.workload,
            horizon: inputs.horizon,
            spans,
            io,
            wall,
            maps_ns: outcome.maps_ns,
            merge_ns: outcome.merge_ns,
            map_rows,
            rows,
            events,
            journal,
        })
    }

    fn counts(&self) -> UnitCounts {
        self.spans.iter().fold(UnitCounts::default(), |mut acc, s| {
            acc.add(&s.counts);
            acc
        })
    }

    fn rounds(&self) -> u64 {
        if self.workload.probes() {
            self.counts().plan.calls
        } else {
            self.rows.rounds
        }
    }

    /// Output rows: campaign rows, or frontier map rows.
    fn out_rows(&self) -> u64 {
        if self.workload.probes() {
            self.map_rows
        } else {
            self.rows.rows
        }
    }

    /// Probes as groups of consecutive batches of one scenario on one
    /// thread (an escalation re-runs the whole batch with more lanes): per
    /// probe its busy time, lanes run, and lanes re-run.
    fn probes(&self) -> Vec<(u64, u64, u64)> {
        // (busy, lanes run, lanes re-run, lanes of the latest batch)
        let mut out: Vec<(u64, u64, u64, u64)> = Vec::new();
        // per thread: its latest probe's index in `out` and its span
        let mut latest: Vec<(u64, usize, &UnitSpan)> = Vec::new();
        for s in &self.spans {
            let lanes = s.lanes as u64;
            match latest.iter_mut().find(|l| l.0 == s.thread) {
                Some(l) if l.2.key == s.key && l.2.first_seed == s.first_seed => {
                    let p = &mut out[l.1];
                    *p = (p.0 + s.busy_ns, p.1 + lanes, p.2 + p.3, lanes);
                    l.2 = s;
                }
                found => {
                    out.push((s.busy_ns, lanes, 0, lanes));
                    let entry = (s.thread, out.len() - 1, s);
                    match found {
                        Some(l) => *l = entry,
                        None => latest.push(entry),
                    }
                }
            }
        }
        out.into_iter().map(|(busy, lanes, rerun, _)| (busy, lanes, rerun)).collect()
    }

    /// Thread time per layer, ms: what no child span covers goes to the
    /// layer driving the workload (scheduling, checkpoint and claim
    /// records, idle workers).
    fn self_ms(&self) -> [(&'static str, f64); 7] {
        let c = self.counts();
        let busy: f64 = self.spans.iter().map(|s| s.busy_ns as f64).sum();
        let protocol = c.protocol_ns();
        let adversary =
            c.plan.est_ns() + self.spans.iter().map(|s| s.adversary_build_ns as f64).sum::<f64>();
        let engine = busy - protocol - adversary;
        let io = &self.io;
        let file_ns = io.write_ns as f64 + io.fsync_ns.iter().sum::<u64>() as f64;
        let journal = file_ns + self.events.fsync_us.iter().sum::<u64>() as f64 * 1e3;
        let handoff: f64 = self.spans.iter().filter_map(|s| s.handoff_ns).sum::<u64>() as f64;
        let sinks = io.accept_ns.iter().sum::<u64>() as f64 + io.sync_ns as f64;
        let campaign_children = handoff + (sinks - file_ns).max(0.0);
        let shard_merge = self.merge_ns as f64;
        let thread_ns = THREADS as f64 * self.wall.as_nanos() as f64;
        let rest = (thread_ns - busy - journal - campaign_children - shard_merge).max(0.0);
        let (mut campaign, mut frontier, mut shard) = (campaign_children, 0.0, shard_merge);
        match self.workload {
            Workload::SweepStable | Workload::BacklogDeep => campaign += rest,
            Workload::FrontierBand => frontier += rest,
            Workload::FleetShortRows => shard += rest,
        }
        let ms = |ns: f64| ns / 1e6;
        [
            ("engine.self_ms", ms(engine)),
            ("protocol.self_ms", ms(protocol)),
            ("adversary.self_ms", ms(adversary)),
            ("campaign.self_ms", ms(campaign)),
            ("frontier.self_ms", ms(frontier)),
            ("journal.self_ms", ms(journal)),
            ("shard.self_ms", ms(shard)),
        ]
    }

    /// Exact counts: machine-independent, identical on every execution of
    /// the same inputs.
    pub fn exact(&self) -> Vec<(&'static str, f64, &'static str)> {
        let c = self.counts();
        let rounds = self.rounds();
        let rows = self.out_rows().max(1) as f64;
        let probes = self.probes();
        let lanes_run: u64 = probes.iter().map(|p| p.1).sum();
        let rerun: u64 = probes.iter().map(|p| p.2).sum();
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        let sink_fsyncs = self.io.fsync_ns.len() as u64 + self.events.fsync_us.len() as u64;
        vec![
            ("engine.rounds", rounds as f64, "count"),
            ("engine.energy_per_round", ratio(c.act.calls as f64, rounds as f64), "stations"),
            ("protocol.act_calls", c.act.calls as f64, "count"),
            ("protocol.feedback_calls", c.feedback.calls as f64, "count"),
            ("protocol.enqueued_calls", c.enqueued.calls as f64, "count"),
            ("queue.max_total", self.rows.max_queue as f64, "packets"),
            ("queue.backlog_end", self.rows.backlog as f64, "packets"),
            ("adversary.plan_calls", c.plan.calls as f64, "count"),
            ("adversary.injections", c.injections as f64, "count"),
            ("campaign.rows", self.rows.rows as f64, "count"),
            ("frontier.probes", self.events.probes as f64, "count"),
            ("frontier.waves", self.events.waves as f64, "count"),
            ("frontier.lanes", self.events.lanes as f64, "count"),
            ("frontier.escalated_probes", self.events.escalations as f64, "count"),
            (
                "frontier.rounds_used_ratio",
                ratio(c.plan.calls as f64, (lanes_run * self.horizon) as f64),
                "1",
            ),
            ("frontier.rerun_lane_share", ratio(rerun as f64, lanes_run as f64), "1"),
            ("journal.fsyncs_per_row", (sink_fsyncs + self.journal.records) as f64 / rows, "1/row"),
            ("journal.bytes_per_row", self.journal.bytes as f64 / rows, "B/row"),
            ("shard.claims", self.events.claims as f64, "count"),
        ]
    }

    /// Timed metrics of this execution.
    fn timed(&self) -> Vec<(&'static str, f64, &'static str)> {
        let c = self.counts();
        let busy: f64 = self.spans.iter().map(|s| s.busy_ns as f64).sum();
        let rounds = self.rounds().max(1) as f64;
        let per = |ns: f64, calls: u64| if calls > 0 { ns / calls as f64 } else { 0.0 };
        let adversary = c.plan.est_ns();
        let engine_self = busy
            - c.protocol_ns()
            - adversary
            - self.spans.iter().map(|s| s.build_ns as f64).sum::<f64>();
        let ms = |v: Vec<f64>| v.into_iter().map(|ns| ns / 1e6).collect::<Vec<f64>>();
        let rows: Vec<f64> = if self.workload.probes() {
            Vec::new()
        } else {
            ms(self.spans.iter().map(|s| s.busy_ns as f64).collect())
        };
        let probes: Vec<f64> = if self.workload.probes() {
            ms(self.probes().iter().map(|p| p.0 as f64).collect())
        } else {
            Vec::new()
        };
        let handoffs: Vec<f64> =
            self.spans.iter().filter_map(|s| s.handoff_ns).map(|h| h as f64 / 1e6).collect();
        let fsync_us: Vec<f64> = self
            .io
            .fsync_ns
            .iter()
            .map(|&ns| ns as f64 / 1e3)
            .chain(self.events.fsync_us.iter().map(|&us| us as f64))
            .collect();
        let accept_us: Vec<f64> = self.io.accept_ns.iter().map(|&ns| ns as f64 / 1e3).collect();
        let thread_ns = THREADS as f64 * self.wall.as_nanos() as f64;
        let maps = THREADS as f64 * self.maps_ns as f64;
        let mean =
            |v: &[f64]| if v.is_empty() { 0.0 } else { v.iter().sum::<f64>() / v.len() as f64 };
        let mut out = vec![
            ("engine.self_ns_per_round", engine_self / rounds, "ns"),
            (
                "engine.build_ms",
                mean(&ms(self.spans.iter().map(|s| s.build_ns as f64).collect())),
                "ms",
            ),
            ("protocol.act_ns_per_call", per(c.act.est_ns(), c.act.calls), "ns"),
            ("protocol.feedback_ns_per_call", per(c.feedback.est_ns(), c.feedback.calls), "ns"),
            ("protocol.busy_share", if busy > 0.0 { c.protocol_ns() / busy } else { 0.0 }, "1"),
            ("adversary.plan_ns_per_call", per(adversary, c.plan.calls), "ns"),
            ("campaign.row_ms_p50", median(&rows), "ms"),
            ("campaign.row_ms_p_hi", high_quantile(&rows), "ms"),
            ("campaign.handoff_wait_ms", mean(&handoffs), "ms"),
            (
                "campaign.worker_busy_share",
                if self.workload.probes() { 0.0 } else { busy / thread_ns },
                "1",
            ),
            ("frontier.probe_ms_p50", median(&probes), "ms"),
            ("frontier.probe_ms_p_hi", high_quantile(&probes), "ms"),
            (
                "frontier.wave_idle_share",
                if self.workload.probes() && maps > 0.0 {
                    (1.0 - busy / maps).max(0.0)
                } else {
                    0.0
                },
                "1",
            ),
            ("journal.fsync_us_p50", median(&fsync_us), "us"),
            ("journal.fsync_us_p_hi", high_quantile(&fsync_us), "us"),
            ("journal.sink_accept_us", mean(&accept_us), "us"),
            ("shard.steals", self.events.steals as f64, "count"),
            ("shard.merge_ms", self.merge_ns as f64 / 1e6, "ms"),
        ];
        out.extend(self.self_ms().map(|(name, v)| (name, v, "ms")));
        out
    }
}

/// Per-layer metrics over a run's traced samples. Fails when an exact
/// count differs between two executions of the same inputs.
pub fn metrics(samples: &[&LayerSample]) -> Result<Vec<Metric>, String> {
    let first = samples.first().ok_or("no traced execution")?;
    let exact = first.exact();
    for s in &samples[1..] {
        for ((name, a, _), (_, b, _)) in exact.iter().zip(s.exact()) {
            if *a != b {
                return Err(format!("exact count {name} changed between executions: {a} vs {b}"));
            }
        }
    }
    let mut out: Vec<Metric> = exact
        .into_iter()
        .map(|(name, value, unit)| Metric { name: name.into(), value, unit })
        .collect();
    let timed: Vec<Vec<(&'static str, f64, &'static str)>> =
        samples.iter().map(|s| s.timed()).collect();
    for (i, &(name, _, unit)) in timed[0].iter().enumerate() {
        let values: Vec<f64> = timed.iter().map(|t| t[i].1).collect();
        out.push(Metric { name: name.into(), value: median(&values), unit });
    }
    Ok(out)
}
