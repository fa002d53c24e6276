//! The benchmark's vocabulary. Metric names, units, directions and
//! bounds are read from `BENCHMARK.json` at the repository root, built
//! into the executable, so there is one list; what this module adds is
//! which workloads measure which per-layer metric.

use crate::data::Class;
use crate::json::{self, Value};

const BENCHMARK_JSON: &str = include_str!("../../../../../BENCHMARK.json");

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    QueryCold,
    ServeHttp,
    IngestServe,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::QueryCold,
        Workload::ServeHttp,
        Workload::IngestServe,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::QueryCold => "query_cold",
            Workload::ServeHttp => "serve_http",
            Workload::IngestServe => "ingest_serve",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Whether the workload runs a server and drives it over TCP.
    fn on_the_wire(self) -> bool {
        self != Workload::QueryCold
    }
}

/// One metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    /// End-to-end metrics only.
    pub bound: Option<f64>,
}

impl Metric {
    /// Whether `workload` measures this metric. The driver wants every
    /// metric on every run, so one that is not measured is reported as 0
    /// and shown as `n/a`; `compare` leaves such rows out.
    pub fn measured_on(&self, workload: Workload) -> bool {
        /// Read off the server's `/metrics` and the clients' samples.
        const WIRE: [&str; 8] = [
            "core.plan.mispredict_ratio",
            "core.compact.count",
            "server.cache.result_hit_ratio",
            "server.cache.plan_hit_ratio",
            "server.engine_share",
            "server.other_us",
            "server.workers.rejected_ratio",
            "server.workers.queue_depth_max",
        ];
        let n = self.name.as_str();
        if n.starts_with("loadgen.open_") || n == "loadgen.late_us_p99" {
            // The open loop is `serve_http`'s phase B.
            workload == Workload::ServeHttp
        } else if n.starts_with("ingest_") {
            // The writer connection.
            workload == Workload::IngestServe
        } else if WIRE.contains(&n) || n.starts_with("core.plan.engine_share.") {
            workload.on_the_wire()
        } else {
            // Probes, set-up figures and engine counters: every workload.
            true
        }
    }
}

/// The declarations of `BENCHMARK.json`.
pub struct Spec {
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

impl Spec {
    pub fn load() -> Result<Spec, String> {
        let v = json::parse(BENCHMARK_JSON).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let section = |key: &str| {
            v.get(key)
                .and_then(Value::as_arr)
                .ok_or_else(|| format!("BENCHMARK.json: no `{key}` array"))
        };
        let metrics = |key: &str| -> Result<Vec<Metric>, String> {
            section(key)?
                .iter()
                .map(|e| {
                    let field = |f: &str| {
                        e.get(f)
                            .and_then(Value::as_str)
                            .ok_or_else(|| format!("BENCHMARK.json: {key} entry without `{f}`"))
                    };
                    Ok(Metric {
                        name: field("name")?.to_string(),
                        unit: field("unit")?.to_string(),
                        lower_is_better: match field("better")? {
                            "lower" => true,
                            "higher" => false,
                            other => return Err(format!("BENCHMARK.json: better = `{other}`")),
                        },
                        bound: e.get("bound").and_then(Value::as_f64),
                    })
                })
                .collect()
        };
        let workloads: Vec<&str> = section("workloads")?
            .iter()
            .filter_map(|w| w.get("name").and_then(Value::as_str))
            .collect();
        let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        if workloads != ours {
            return Err(format!(
                "BENCHMARK.json workloads {workloads:?} differ from the driver's {ours:?}"
            ));
        }
        Ok(Spec {
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }
}

/// `core.<stage>.us.<class>`.
pub fn stage_class_metric(stage: &str, class: Class) -> String {
    format!("core.{stage}.us.{}", class.name())
}
