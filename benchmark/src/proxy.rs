//! Timing-proxy components and the script rewriting that splices them in.
//!
//! The paper's future-work item (4) is per-component performance
//! characterisation à la TAU. CCA makes that possible from *outside* an
//! application: a proxy component provides the same port type it uses, so
//! rewriting one `connect` line of the assembly script into two puts a
//! stopwatch on a port without touching either component:
//!
//! ```text
//! connect driver time-integrator rkc time-integrator
//! ```
//! becomes
//! ```text
//! instantiate BenchProxy.TimeIntegrator bp.rkc.time-integrator
//! connect bp.rkc.time-integrator inner rkc time-integrator
//! connect driver time-integrator bp.rkc.time-integrator time-integrator
//! ```
//!
//! A proxy's instance name carries the provider it fronts, so spans are
//! named `provider.port.method` (`rkc.time-integrator.advance`). Ports that
//! hand out `Send + Sync` kernel snapshots (`PatchRhsPort`,
//! `OdeIntegratorPort`) get their snapshot wrapped too, so calls made on
//! executor workers are seen. `MeshPort` and `DataPort` are not proxied:
//! their cost lands in the caller's self time.

use crate::span;
use cca_components::ports::{
    ChemistryAdvancePort, EigenEstimatePort, InitialConditionPort, IntegrateStats, OdeCellKernel,
    OdeIntegratorPort, OdeRhsPort, OdeSystemKernel, PatchKernel, PatchRhsPort, RegridPort,
    TimeIntegratorPort,
};
use cca_core::{Component, Framework, GoPort, Services};
use cca_mesh::data::PatchData;
use std::cell::OnceCell;
use std::collections::BTreeSet;
use std::rc::Rc;
use std::sync::Arc;

/// Prefix of every proxy instance name.
pub const INSTANCE_PREFIX: &str = "bp.";

/// `(provides-port name, proxy class)`: a `connect` or `go` whose provider
/// port has one of these names is routed through that class. The three
/// paper assemblies use each name for exactly one port type; anything else
/// would be refused by the framework's type check at `connect`.
pub const PROXIED_PORTS: [(&str, &str); 8] = [
    ("time-integrator", "BenchProxy.TimeIntegrator"),
    ("chemistry-advance", "BenchProxy.ChemistryAdvance"),
    ("regrid", "BenchProxy.Regrid"),
    ("patch-rhs", "BenchProxy.PatchRhs"),
    ("eigen-estimate", "BenchProxy.EigenEstimate"),
    ("ic", "BenchProxy.InitialCondition"),
    ("integrator", "BenchProxy.OdeIntegrator"),
    ("go", "BenchProxy.Go"),
];

fn proxy_class(port: &str) -> Option<&'static str> {
    PROXIED_PORTS
        .iter()
        .find(|(name, _)| *name == port)
        .map(|(_, class)| *class)
}

/// Rewrite `script` so every proxied port is reached through a proxy.
/// Lines that are not a `connect`/`go` on a proxied port — comments,
/// `instantiate`, `parameter`, `arena` — pass through byte for byte, and a
/// script that is already interposed comes back unchanged.
pub fn interpose(script: &str) -> String {
    let mut out = String::with_capacity(script.len() * 2);
    let mut spliced: BTreeSet<String> = script
        .lines()
        .filter_map(|l| {
            let tok: Vec<&str> = code_of(l).split_whitespace().collect();
            (tok.len() == 3 && tok[0] == "instantiate" && tok[2].starts_with(INSTANCE_PREFIX))
                .then(|| tok[2].to_string())
        })
        .collect();
    for line in script.lines() {
        let tok: Vec<&str> = code_of(line).split_whitespace().collect();
        let target = match tok.as_slice() {
            ["connect", user, _, provider, port]
                if !user.starts_with(INSTANCE_PREFIX) && !provider.starts_with(INSTANCE_PREFIX) =>
            {
                Some((*provider, *port))
            }
            ["go", instance, port] if !instance.starts_with(INSTANCE_PREFIX) => {
                Some((*instance, *port))
            }
            _ => None,
        };
        let Some((provider, port, class)) =
            target.and_then(|(pr, po)| proxy_class(po).map(|c| (pr, po, c)))
        else {
            out.push_str(line);
            out.push('\n');
            continue;
        };
        let proxy = format!("{INSTANCE_PREFIX}{provider}.{port}");
        if spliced.insert(proxy.clone()) {
            out.push_str(&format!("instantiate {class} {proxy}\n"));
            out.push_str(&format!("connect {proxy} inner {provider} {port}\n"));
        }
        match tok.as_slice() {
            ["connect", user, uses, _, _] => {
                out.push_str(&format!("connect {user} {uses} {proxy} {port}\n"));
            }
            _ => out.push_str(&format!("go {proxy} {port}\n")),
        }
    }
    out
}

/// The part of a script line before any `#` comment.
fn code_of(line: &str) -> &str {
    line.split('#').next().unwrap_or("")
}

/// Add every proxy class to `fw`'s palette.
pub fn register(fw: &mut Framework) {
    fw.register_class("BenchProxy.TimeIntegrator", || {
        Box::new(ProxyComponent::<dyn TimeIntegratorPort>::new(
            "time-integrator",
        ))
    });
    fw.register_class("BenchProxy.ChemistryAdvance", || {
        Box::new(ProxyComponent::<dyn ChemistryAdvancePort>::new(
            "chemistry-advance",
        ))
    });
    fw.register_class("BenchProxy.Regrid", || {
        Box::new(ProxyComponent::<dyn RegridPort>::new("regrid"))
    });
    fw.register_class("BenchProxy.PatchRhs", || {
        Box::new(ProxyComponent::<dyn PatchRhsPort>::new("patch-rhs"))
    });
    fw.register_class("BenchProxy.EigenEstimate", || {
        Box::new(ProxyComponent::<dyn EigenEstimatePort>::new(
            "eigen-estimate",
        ))
    });
    fw.register_class("BenchProxy.InitialCondition", || {
        Box::new(ProxyComponent::<dyn InitialConditionPort>::new("ic"))
    });
    fw.register_class("BenchProxy.OdeIntegrator", || {
        Box::new(ProxyComponent::<dyn OdeIntegratorPort>::new("integrator"))
    });
    fw.register_class("BenchProxy.Go", || {
        Box::new(ProxyComponent::<dyn GoPort>::new("go"))
    });
}

/// A proxy port: forwards every call to the port it fronts, inside a span.
struct Timed<P: ?Sized> {
    services: Services,
    /// The fronted port, fetched on first use and kept.
    inner: OnceCell<Rc<P>>,
    /// Span id of `provider.port.method`.
    id: u32,
}

impl<P: ?Sized + 'static> Timed<P> {
    /// The fronted port: fetched on first use and kept, as components do
    /// after their first `getPort`.
    fn inner(&self) -> &Rc<P> {
        self.inner.get_or_init(|| {
            self.services
                .get_port::<Rc<P>>("inner")
                .expect("a proxy is only reachable once its inner port is connected")
        })
    }
}

/// A proxy component for port type `P`: uses `inner`, provides `port`.
struct ProxyComponent<P: ?Sized> {
    port: &'static str,
    _type: std::marker::PhantomData<fn(&P)>,
}

impl<P: ?Sized> ProxyComponent<P> {
    fn new(port: &'static str) -> Self {
        ProxyComponent {
            port,
            _type: std::marker::PhantomData,
        }
    }
}

/// A port type that has a proxy: which method the span is named after,
/// and how a [`Timed`] becomes the trait object.
trait MakePort: 'static {
    const METHOD: &'static str;
    fn make(timed: Timed<Self>) -> Rc<Self>;
}

impl<P: ?Sized + MakePort> Component for ProxyComponent<P> {
    fn set_services(&mut self, s: Services) {
        s.register_uses_port::<Rc<P>>("inner");
        // The instance name carries the provider and port being fronted.
        let name = s.instance_name();
        let stem = name.strip_prefix(INSTANCE_PREFIX).unwrap_or(&name);
        let port = P::make(Timed {
            services: s.clone(),
            inner: OnceCell::new(),
            id: span::intern(&format!("{stem}.{}", P::METHOD)),
        });
        s.add_provides_port::<Rc<P>>(self.port, port);
    }
}

// --- one forwarding impl per port type --------------------------------

impl MakePort for dyn TimeIntegratorPort {
    const METHOD: &'static str = "advance";
    fn make(timed: Timed<Self>) -> Rc<Self> {
        Rc::new(timed)
    }
}
impl TimeIntegratorPort for Timed<dyn TimeIntegratorPort> {
    fn advance(&self, state: &str, t: f64, dt_max: f64) -> Result<f64, String> {
        let inner = self.inner();
        let _span = span::enter(self.id);
        inner.advance(state, t, dt_max)
    }
}

impl MakePort for dyn ChemistryAdvancePort {
    const METHOD: &'static str = "advance_chemistry";
    fn make(timed: Timed<Self>) -> Rc<Self> {
        Rc::new(timed)
    }
}
impl ChemistryAdvancePort for Timed<dyn ChemistryAdvancePort> {
    fn advance_chemistry(&self, state: &str, dt: f64, p: f64) -> Result<usize, String> {
        let inner = self.inner();
        let _span = span::enter(self.id);
        inner.advance_chemistry(state, dt, p)
    }
}

impl MakePort for dyn RegridPort {
    const METHOD: &'static str = "estimate_and_regrid";
    fn make(timed: Timed<Self>) -> Rc<Self> {
        Rc::new(timed)
    }
}
impl RegridPort for Timed<dyn RegridPort> {
    fn estimate_and_regrid(&self, state: &str, level: usize, var: usize, threshold: f64) -> usize {
        let inner = self.inner();
        let _span = span::enter(self.id);
        inner.estimate_and_regrid(state, level, var, threshold)
    }
}

impl MakePort for dyn EigenEstimatePort {
    const METHOD: &'static str = "estimate";
    fn make(timed: Timed<Self>) -> Rc<Self> {
        Rc::new(timed)
    }
}
impl EigenEstimatePort for Timed<dyn EigenEstimatePort> {
    fn estimate(&self, name: &str) -> f64 {
        let inner = self.inner();
        let _span = span::enter(self.id);
        inner.estimate(name)
    }
}

impl MakePort for dyn InitialConditionPort {
    const METHOD: &'static str = "apply";
    fn make(timed: Timed<Self>) -> Rc<Self> {
        Rc::new(timed)
    }
}
impl InitialConditionPort for Timed<dyn InitialConditionPort> {
    fn apply(&self, state: &str) {
        let inner = self.inner();
        let _span = span::enter(self.id);
        inner.apply(state);
    }
}

impl MakePort for dyn GoPort {
    const METHOD: &'static str = "go";
    fn make(timed: Timed<Self>) -> Rc<Self> {
        Rc::new(timed)
    }
}
impl GoPort for Timed<dyn GoPort> {
    fn go(&self) -> Result<(), String> {
        let inner = self.inner();
        let _span = span::enter(self.id);
        inner.go()
    }
}

impl MakePort for dyn PatchRhsPort {
    const METHOD: &'static str = "eval";
    fn make(timed: Timed<Self>) -> Rc<Self> {
        Rc::new(timed)
    }
}
impl PatchRhsPort for Timed<dyn PatchRhsPort> {
    fn eval_patch(&self, state: &PatchData, rhs: &mut PatchData, dx: f64, dy: f64, t: f64) {
        let inner = self.inner();
        let _span = span::enter(self.id);
        inner.eval_patch(state, rhs, dx, dy, t);
    }
    fn evals(&self) -> usize {
        self.inner().evals()
    }
    fn patch_kernel(&self) -> Option<Arc<dyn PatchKernel>> {
        let inner = self.inner().patch_kernel()?;
        Some(Arc::new(TimedPatchKernel { inner, id: self.id }))
    }
}

/// The kernel snapshot of a proxied `PatchRhsPort`: same span name as the
/// port's own `eval_patch`, whichever thread runs it.
struct TimedPatchKernel {
    inner: Arc<dyn PatchKernel>,
    id: u32,
}
impl PatchKernel for TimedPatchKernel {
    fn eval(&self, state: &PatchData, rhs: &mut PatchData, dx: f64, dy: f64, t: f64) {
        let _span = span::enter(self.id);
        self.inner.eval(state, rhs, dx, dy, t);
    }
    // The profiler timer must keep the provider's name, or a profiled run
    // of the proxied assembly would report under a different label.
    fn label(&self) -> &'static str {
        self.inner.label()
    }
}

impl MakePort for dyn OdeIntegratorPort {
    const METHOD: &'static str = "integrate";
    fn make(timed: Timed<Self>) -> Rc<Self> {
        Rc::new(timed)
    }
}
impl OdeIntegratorPort for Timed<dyn OdeIntegratorPort> {
    fn integrate(
        &self,
        rhs: Rc<dyn OdeRhsPort>,
        t0: f64,
        t1: f64,
        y: &mut [f64],
    ) -> Result<IntegrateStats, String> {
        let inner = self.inner();
        let _span = span::enter(self.id);
        inner.integrate(rhs, t0, t1, y)
    }
    fn set_tolerances(&self, rtol: f64, atol: f64) {
        self.inner().set_tolerances(rtol, atol);
    }
    fn set_initial_step(&self, h: Option<f64>) {
        self.inner().set_initial_step(h);
    }
    fn cell_kernel(&self) -> Option<Arc<dyn OdeCellKernel>> {
        let inner = self.inner().cell_kernel()?;
        Some(Arc::new(TimedCellKernel { inner, id: self.id }))
    }
}

/// One span per cell integration (never per RHS call: at ≈ 40 RHS calls
/// of ≈ 1 µs per cell the stopwatch would dominate).
struct TimedCellKernel {
    inner: Arc<dyn OdeCellKernel>,
    id: u32,
}
impl OdeCellKernel for TimedCellKernel {
    fn integrate(
        &self,
        sys: &dyn OdeSystemKernel,
        t0: f64,
        t1: f64,
        y: &mut [f64],
    ) -> Result<IntegrateStats, String> {
        let _span = span::enter(self.id);
        self.inner.integrate(sys, t0, t1, y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cca_apps::ignition0d::{ignition_framework, ignition_script};
    use cca_apps::reaction_diffusion::{rd_framework, rd_script, RdConfig};
    use cca_apps::shock_interface::{shock_framework, shock_script, ShockConfig};

    #[test]
    fn interposition_splices_one_proxy_per_provider_port() {
        let script = "# wiring\n\
                      instantiate A a\n\
                      connect u1 ti a time-integrator   # first user\n\
                      connect u2 ti a time-integrator\n\
                      connect u1 mesh grace mesh\n\
                      parameter a k 3.5e-1\n\
                      arena\n\
                      go driver go\n";
        let out = interpose(script);
        assert_eq!(
            out,
            "# wiring\n\
             instantiate A a\n\
             instantiate BenchProxy.TimeIntegrator bp.a.time-integrator\n\
             connect bp.a.time-integrator inner a time-integrator\n\
             connect u1 ti bp.a.time-integrator time-integrator\n\
             connect u2 ti bp.a.time-integrator time-integrator\n\
             connect u1 mesh grace mesh\n\
             parameter a k 3.5e-1\n\
             arena\n\
             instantiate BenchProxy.Go bp.driver.go\n\
             connect bp.driver.go inner driver go\n\
             go bp.driver.go go\n"
        );
    }

    #[test]
    fn interposition_is_idempotent_and_keeps_parameter_and_go_lines() {
        for script in [
            rd_script(&RdConfig::default()),
            shock_script(&ShockConfig::default()),
            ignition_script(true, 1500.0, 101_325.0, 1e-5),
        ] {
            let once = interpose(&script);
            assert_ne!(once, script);
            assert_eq!(interpose(&once), once, "second pass changed the script");
            let keep = |s: &str, head: &str| -> Vec<String> {
                s.lines()
                    .filter(|l| l.starts_with(head))
                    .map(str::to_string)
                    .collect()
            };
            assert_eq!(keep(&once, "parameter "), keep(&script, "parameter "));
            assert_eq!(keep(&once, "instantiate ").len(), {
                let proxies = once.matches("instantiate BenchProxy.").count();
                keep(&script, "instantiate ").len() + proxies
            });
            assert_eq!(keep(&once, "go ").len(), keep(&script, "go ").len());
            assert_eq!(keep(&once, "arena"), keep(&script, "arena"));
        }
    }

    #[test]
    fn proxied_assemblies_are_analyzer_clean() {
        let cases: [(Framework, String); 3] = [
            (rd_framework(), rd_script(&RdConfig::default())),
            (shock_framework(), shock_script(&ShockConfig::default())),
            (
                ignition_framework(),
                ignition_script(true, 1500.0, 101_325.0, 1e-5),
            ),
        ];
        for (mut fw, script) in cases {
            register(&mut fw);
            let proxied = interpose(&script);
            cca_analyze::lint(&fw, &proxied).unwrap_or_else(|e| panic!("{e}\n{proxied}"));
            let report = cca_analyze::Analyzer::new(&fw).analyze(&proxied);
            assert!(report.is_clean(), "{}", report.render(&proxied));
        }
    }
}
