//! Spans around the calls the benchmark makes into each layer.
//!
//! The request path is written once, generic over a [`Probe`]. The untraced
//! run uses [`NoProbe`], whose calls compile to nothing. The traced run uses
//! [`Tracer`], which reads the clock at every layer boundary: each reading
//! closes one segment and charges it to the layer just called, so the
//! segments of a root span add up to the root exactly. Every segment holds
//! one clock read; the calibrated read cost is moved from the layers into
//! the benchmark's own self time when the summary is taken.
//!
//! `Gateway::handle_request` is one opaque call. Its parts are timed after
//! the request, on a mirror of the gateway's state ([`crate::system`]),
//! as sub-spans of `gateway.handle_request`; whatever the whole call costs
//! beyond its timed parts is its self time, reported as `gateway.glue_ns`.

use crate::clock::{self, Stamp};

/// A layer whose public calls the benchmark times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// The benchmark's own code between layer calls.
    Bench,
    /// `RequestParser::feed`.
    Parse,
    /// `CompiledPolicySet::l7_verdict`.
    Policy,
    /// `RouteTable::route`.
    Route,
    /// `Gateway::handle_request`.
    Handle,
    /// `MtlsEndpoint::seal`.
    Seal,
    /// The three-message mTLS handshake.
    Handshake,
    /// `SessionAggregator::encapsulate`.
    Encap,
    /// `SessionAggregator::session_closed`.
    Close,
    /// `VxlanFrame::encode`.
    Encode,
    /// `ActivePolicy` stage and commit (spec build included).
    PolicyCommit,
    /// Route table build and `L7Engine::try_install_routes`.
    RouteInstall,
    /// `Gateway::stage_config` and `commit_staged_config`.
    ConfigCommit,
    /// Mirror: `Sandbox::admit`.
    Admit,
    /// Mirror: `PlacementView::{backends_of, backend_available, live_replicas}`.
    Placement,
    /// Mirror: `ecmp_select`.
    Ecmp,
    /// Mirror: `Redirector::dispatch`.
    Dispatch,
    /// Mirror: `SessionTable::establish`.
    Establish,
    /// Mirror: `SessionTable::touch`.
    Touch,
    /// Mirror: `CpuServer::submit`.
    Submit,
}

/// Number of [`Layer`]s.
pub const N_LAYERS: usize = 20;

/// Every layer, in index order.
pub const LAYERS: [Layer; N_LAYERS] = [
    Layer::Bench,
    Layer::Parse,
    Layer::Policy,
    Layer::Route,
    Layer::Handle,
    Layer::Seal,
    Layer::Handshake,
    Layer::Encap,
    Layer::Close,
    Layer::Encode,
    Layer::PolicyCommit,
    Layer::RouteInstall,
    Layer::ConfigCommit,
    Layer::Admit,
    Layer::Placement,
    Layer::Ecmp,
    Layer::Dispatch,
    Layer::Establish,
    Layer::Touch,
    Layer::Submit,
];

impl Layer {
    /// Index into per-layer arrays.
    pub fn index(self) -> usize {
        self as usize
    }

    /// Span name.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Bench => "bench",
            Layer::Parse => "http.parse",
            Layer::Policy => "policy.l7_verdict",
            Layer::Route => "http.route",
            Layer::Handle => "gateway.handle_request",
            Layer::Seal => "crypto.seal",
            Layer::Handshake => "crypto.handshake",
            Layer::Encap => "tunnel.encapsulate",
            Layer::Close => "tunnel.session_close",
            Layer::Encode => "vxlan.encode",
            Layer::PolicyCommit => "control.policy_commit",
            Layer::RouteInstall => "control.route_install",
            Layer::ConfigCommit => "control.config_commit",
            Layer::Admit => "gateway.sandbox.admit",
            Layer::Placement => "gateway.placement",
            Layer::Ecmp => "net.ecmp_select",
            Layer::Dispatch => "gateway.redirector.dispatch",
            Layer::Establish => "net.session.establish",
            Layer::Touch => "net.session.touch",
            Layer::Submit => "sim.cpu_submit",
        }
    }

    /// Whether the layer is a part of `gateway.handle_request`, timed on
    /// the mirror.
    pub fn is_gateway_part(self) -> bool {
        self.index() >= Layer::Admit.index()
    }
}

/// What a root span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Root {
    /// One request through the gateway.
    Request,
    /// Opening a connection (`tenant_churn`).
    ConnOpen,
    /// One control-plane update (`tenant_churn`).
    Push,
}

impl Root {
    /// Span name.
    pub fn name(self) -> &'static str {
        match self {
            Root::Request => "request",
            Root::ConnOpen => "conn.open",
            Root::Push => "control.push",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// Layer-boundary hooks of the request path.
pub trait Probe {
    /// Whether spans are recorded (selects the mirror decomposition).
    const TRACED: bool;
    /// Open a root span.
    fn begin(&mut self, root: Root, id: u64);
    /// Close the segment since the previous boundary, charging `layer`.
    fn lap(&mut self, layer: Layer);
    /// Close the root span at the last boundary.
    fn end(&mut self);
    /// Start timing the mirror parts of the last `handle_request`.
    fn parts_begin(&mut self);
    /// Close the mirror segment since the previous part, charging `layer`.
    fn part(&mut self, layer: Layer);
}

/// The untraced probe: records nothing.
pub struct NoProbe;

impl Probe for NoProbe {
    const TRACED: bool = false;
    #[inline(always)]
    fn begin(&mut self, _: Root, _: u64) {}
    #[inline(always)]
    fn lap(&mut self, _: Layer) {}
    #[inline(always)]
    fn end(&mut self) {}
    #[inline(always)]
    fn parts_begin(&mut self) {}
    #[inline(always)]
    fn part(&mut self, _: Layer) {}
}

/// Total time and call count.
#[derive(Debug, Clone, Copy, Default)]
pub struct Agg {
    /// Summed raw nanoseconds.
    pub ns: u64,
    /// Calls.
    pub calls: u64,
}

/// One kept span.
#[derive(Debug, Clone, Copy)]
pub struct SpanRec {
    /// Root kind.
    pub root: Root,
    /// Request (or operation) id shared by all spans of the root.
    pub id: u64,
    /// `None` for the root span itself.
    pub layer: Option<Layer>,
    /// Raw duration.
    pub ns: u64,
}

/// The recording probe.
pub struct Tracer {
    start: Stamp,
    prev: Stamp,
    part_prev: Stamp,
    root: Root,
    id: u64,
    keep: bool,
    /// Keep every span of one root in this many (by id), plus all counts.
    sample_every: u64,
    layers: [Agg; N_LAYERS],
    roots: [Agg; 3],
    /// Raw duration of every `handle_request` call.
    pub handle_ns: Vec<u32>,
    /// Kept spans.
    pub spans: Vec<SpanRec>,
}

impl Tracer {
    /// A tracer that keeps the spans of one root in `sample_every`.
    pub fn new(sample_every: u64) -> Tracer {
        let t = clock::now();
        Tracer {
            start: t,
            prev: t,
            part_prev: t,
            root: Root::Request,
            id: 0,
            keep: false,
            sample_every: sample_every.max(1),
            layers: [Agg::default(); N_LAYERS],
            roots: [Agg::default(); 3],
            handle_ns: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Totals of one root kind.
    pub fn root(&self, root: Root) -> Agg {
        self.roots[root.index()]
    }

    /// Totals of one layer.
    pub fn layer(&self, layer: Layer) -> Agg {
        self.layers[layer.index()]
    }
}

impl Probe for Tracer {
    const TRACED: bool = true;

    #[inline(always)]
    fn begin(&mut self, root: Root, id: u64) {
        self.root = root;
        self.id = id;
        self.keep = id.is_multiple_of(self.sample_every);
        let t = clock::now();
        self.start = t;
        self.prev = t;
    }

    #[inline(always)]
    fn lap(&mut self, layer: Layer) {
        let t = clock::now();
        let ns = clock::ns_between(self.prev, t);
        self.prev = t;
        let agg = &mut self.layers[layer.index()];
        agg.ns += ns;
        agg.calls += 1;
        if layer == Layer::Handle {
            self.handle_ns.push(ns.min(u32::MAX as u64) as u32);
        }
        if self.keep {
            self.spans.push(SpanRec {
                root: self.root,
                id: self.id,
                layer: Some(layer),
                ns,
            });
        }
    }

    #[inline(always)]
    fn end(&mut self) {
        let ns = clock::ns_between(self.start, self.prev);
        let agg = &mut self.roots[self.root.index()];
        agg.ns += ns;
        agg.calls += 1;
        if self.keep {
            self.spans.push(SpanRec {
                root: self.root,
                id: self.id,
                layer: None,
                ns,
            });
        }
    }

    #[inline(always)]
    fn parts_begin(&mut self) {
        self.part_prev = clock::now();
    }

    #[inline(always)]
    fn part(&mut self, layer: Layer) {
        let t = clock::now();
        let ns = clock::ns_between(self.part_prev, t);
        self.part_prev = t;
        let agg = &mut self.layers[layer.index()];
        agg.ns += ns;
        agg.calls += 1;
        if self.keep {
            self.spans.push(SpanRec {
                root: self.root,
                id: self.id,
                layer: Some(layer),
                ns,
            });
        }
    }
}
