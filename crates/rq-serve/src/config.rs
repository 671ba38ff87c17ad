//! Server configuration and its structured validation.

use crate::faults::FaultPlan;
use rq_metrics::recorder::RecorderConfig;
use std::time::Duration;

/// Per-tenant admission quotas: a token bucket denominated in **governor
/// fuel**, the same unit the evaluation budgets use. Each admitted
/// request debits its fuel budget from its tenant's bucket up front, so
/// one tenant's expensive queries throttle *that tenant* long before
/// they can starve the pool for everyone else.
#[derive(Debug, Clone)]
pub struct TenantQuota {
    /// Sustained refill rate, fuel per second.
    pub fuel_per_sec: u64,
    /// Bucket capacity: how much fuel a tenant may burst after idling.
    pub burst_fuel: u64,
}

impl Default for TenantQuota {
    fn default() -> Self {
        TenantQuota {
            fuel_per_sec: 200_000,
            burst_fuel: 1_000_000,
        }
    }
}

/// Front-end construction knobs. Everything is bounded: concurrent
/// executions and the line waiting for them, the connection count, the
/// per-request deadline, and the drain deadline all have explicit
/// limits, so overload turns into shedding rather than unbounded
/// buffering.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address, e.g. `127.0.0.1:7878` (`:0` picks a free port).
    pub addr: String,
    /// Admitted jobs executing at once, each on the thread that admitted
    /// it (each evaluation then fans out across the engine's own pool).
    pub workers: usize,
    /// Admitted jobs that may wait, in admission order, for one of the
    /// `workers` execution slots; one more is shed. Must be ≥ 1 — a
    /// zero-capacity line is a configuration error, not a panic.
    pub queue_capacity: usize,
    /// Maximum concurrently served connections; excess connections are
    /// answered `503` and closed immediately.
    pub max_connections: usize,
    /// Default per-request deadline (clients may lower it with
    /// `X-Timeout-Ms`, never raise it).
    pub request_timeout: Duration,
    /// Default per-request fuel budget (clients may lower it with
    /// `X-Fuel`, never raise it). This is also the fuel debited from the
    /// tenant's bucket at admission.
    pub request_fuel: u64,
    /// How long a drain may take before in-flight work is cancelled.
    pub drain_deadline: Duration,
    /// Per-tenant admission quota.
    pub quota: TenantQuota,
    /// Deterministic fault-injection plan (active only when the crate is
    /// built with the `faults` feature; inert otherwise).
    pub faults: FaultPlan,
    /// Socket read timeout for idle keep-alive connections. Bounds how
    /// long a drain must wait for handler threads to notice the flag.
    pub idle_timeout: Duration,
    /// Flight-recorder sizing and head-sampling policy for request
    /// traces (`/tracez`, `/slowz`, and the `explain` option). Memory is
    /// bounded by the two ring capacities regardless of load.
    pub tracing: RecorderConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            queue_capacity: 64,
            max_connections: 256,
            request_timeout: Duration::from_secs(2),
            request_fuel: 200_000,
            drain_deadline: Duration::from_secs(5),
            quota: TenantQuota::default(),
            faults: FaultPlan::none(),
            idle_timeout: Duration::from_millis(500),
            tracing: RecorderConfig::default(),
        }
    }
}

/// A configuration the server refuses to start with.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    /// Which knob is broken and why.
    pub message: String,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "error[config]: {}", self.message)
    }
}

impl std::error::Error for ConfigError {}

impl ServeConfig {
    /// Validate every bound, returning the first structured error. A
    /// zero-sized waiting line, zero workers, or a zero drain deadline
    /// would all previously have panicked (or hung) somewhere deep in the
    /// stack; they are rejected here by name instead.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let fail = |message: String| Err(ConfigError { message });
        if self.workers == 0 {
            return fail("workers must be at least 1".into());
        }
        if self.queue_capacity == 0 {
            return fail(
                "queue_capacity must be at least 1 (a zero-sized bounded queue can never admit)"
                    .into(),
            );
        }
        if self.max_connections == 0 {
            return fail("max_connections must be at least 1".into());
        }
        if self.request_timeout.is_zero() {
            return fail("request_timeout must be positive".into());
        }
        if self.request_fuel == 0 {
            return fail("request_fuel must be positive".into());
        }
        if self.drain_deadline.is_zero() {
            return fail("drain_deadline must be positive".into());
        }
        if self.quota.fuel_per_sec == 0 || self.quota.burst_fuel == 0 {
            return fail("tenant quota rates must be positive".into());
        }
        if self.quota.burst_fuel < self.request_fuel {
            return fail(format!(
                "tenant burst_fuel ({}) is below request_fuel ({}): no request could ever be \
                 admitted",
                self.quota.burst_fuel, self.request_fuel
            ));
        }
        if self.tracing.recent_capacity == 0 || self.tracing.slow_capacity == 0 {
            return fail("tracing ring capacities must be at least 1".into());
        }
        if self.tracing.sample_every == 0 {
            return fail(
                "tracing.sample_every must be at least 1 (1 = trace every request)".into(),
            );
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_validates() {
        ServeConfig::default().validate().unwrap();
    }

    #[test]
    fn zero_sized_bounded_queue_is_a_structured_error() {
        let cfg = ServeConfig {
            queue_capacity: 0,
            ..ServeConfig::default()
        };
        let err = cfg.validate().unwrap_err();
        assert!(err.to_string().contains("queue_capacity"), "{err}");
        assert!(err.to_string().starts_with("error[config]:"), "{err}");
    }

    #[test]
    fn impossible_quota_is_rejected() {
        let cfg = ServeConfig {
            request_fuel: 10,
            quota: TenantQuota {
                fuel_per_sec: 1,
                burst_fuel: 5,
            },
            ..ServeConfig::default()
        };
        assert!(cfg.validate().is_err());
        for bad in [
            ServeConfig {
                workers: 0,
                ..ServeConfig::default()
            },
            ServeConfig {
                max_connections: 0,
                ..ServeConfig::default()
            },
            ServeConfig {
                drain_deadline: Duration::ZERO,
                ..ServeConfig::default()
            },
            ServeConfig {
                tracing: RecorderConfig {
                    sample_every: 0,
                    ..RecorderConfig::default()
                },
                ..ServeConfig::default()
            },
            ServeConfig {
                tracing: RecorderConfig {
                    recent_capacity: 0,
                    ..RecorderConfig::default()
                },
                ..ServeConfig::default()
            },
        ] {
            assert!(bad.validate().is_err());
        }
    }
}
