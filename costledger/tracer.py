"""Per-layer host-time attribution for one traced workload run.

Nothing under ``src/`` changes; everything here is applied from outside
once, before a workload runs, in its own child process:

* every :class:`~repro.sim.core.Environment` gets a
  :class:`LayerProfiler` — a :class:`~repro.perf.profiler.KernelProfiler`
  whose ``on_callback`` hook closes the span of the kernel dispatch that
  just ran — and ``Environment.step`` is wrapped so each dispatch's
  layer is resolved *before* it runs (the generator a process resumes
  is the innermost frame of its ``yield from`` chain at that moment);
* the public entry points each layer exposes to the others are wrapped
  in spans (:data:`ENTRY_POINTS`);
* a layer's self time is its spans' time minus their child spans, so
  the layers partition the covered host time exactly.  Host time no
  span covers is reported as ``uncovered_s`` rather than spread over
  the layers.

Layers are the ``repro`` packages (:data:`LAYER_OF_PACKAGE`).  A
dispatch whose code lives anywhere else is an error: the traced run
fails instead of hiding the time.
"""

from __future__ import annotations

import statistics
from collections import Counter
from time import perf_counter
from typing import Dict, List

LAYERS = ("sim", "raft", "etcd", "mongo", "kube", "core", "objectstore",
          "nfs", "docker", "resilience", "federation", "driver")

#: ``repro.<package>`` -> layer.  The chaos engines and the workload
#: generators are the drivers that stand in for users.
LAYER_OF_PACKAGE = {
    "sim": "sim", "raft": "raft", "etcd": "etcd", "mongo": "mongo",
    "kube": "kube", "core": "core", "objectstore": "objectstore",
    "nfs": "nfs", "docker": "docker", "resilience": "resilience",
    "federation": "federation", "chaos": "driver", "workloads": "driver",
}

#: (module, class, methods, layer): the spans around each layer's
#: public entry points.  Methods that return events time only the
#: synchronous part; the asynchronous rest is the dispatches it causes.
ENTRY_POINTS = (
    ("repro.kube.api", "KubeAPI",
     ("create_pod", "bind_pod", "update_pod", "delete_pod", "get_pod",
      "try_get_pod", "list_pods", "mark_pod_for_deletion", "record_event",
      "update_node", "list_nodes", "create_statefulset",
      "delete_statefulset", "create_job", "delete_job"), "kube"),
    ("repro.etcd.kv", "EtcdStore",
     ("put", "get", "range", "delete", "delete_prefix", "txn", "keepalive",
      "grant_lease", "revoke", "lease_alive", "watch", "watch_prefix"),
     "etcd"),
    ("repro.etcd.client", "EtcdClient",
     ("put", "get", "get_value", "range", "delete", "delete_prefix", "txn",
      "grant_lease", "keepalive", "revoke", "lease_alive", "watch",
      "watch_prefix"), "etcd"),
    ("repro.etcd.replicated", "ReplicatedEtcd",
     ("put", "delete", "delete_prefix", "txn", "grant_lease", "keepalive",
      "lease_alive"), "etcd"),
    ("repro.raft.cluster", "RaftCluster", ("propose",), "raft"),
    ("repro.raft.network", "Network", ("send",), "raft"),
    ("repro.mongo.collection", "Collection",
     ("insert_one", "update_one", "update_many", "replace_one", "find",
      "find_one", "delete_one", "delete_many", "count", "get",
      "apply_oplog_entry"), "mongo"),
    ("repro.mongo.client", "MongoClient",
     ("insert_one", "update_one", "update_many", "find", "find_one",
      "delete_many", "count"), "mongo"),
    ("repro.objectstore.service", "ObjectStorageService",
     ("download", "upload", "list_objects"), "objectstore"),
    ("repro.objectstore.mount", "BucketMount", ("read", "write"),
     "objectstore"),
    ("repro.nfs.volume", "NFSVolume", ("write", "append", "read"), "nfs"),
    ("repro.nfs.provisioner", "NFSProvisioner", ("provision",), "nfs"),
    ("repro.nfs.provisioner", "VolumePool", ("acquire",), "nfs"),
    ("repro.docker.runtime", "Registry", ("pull",), "docker"),
    ("repro.docker.runtime", "Container", ("start", "kill"), "docker"),
    ("repro.resilience.buffer", "BufferedJobWriter", ("insert", "update"),
     "resilience"),
    ("repro.core.platform", "FfDLPlatform", ("submit_job",), "core"),
    ("repro.core.services", "Microservice", ("call",), "core"),
    ("repro.federation.bus", "FederationBus", ("call", "send"),
     "federation"),
)

#: Classes whose instances are collected for the end-of-run counters.
COLLECTED = (
    ("repro.core.platform", "FfDLPlatform"),
    ("repro.raft.network", "Network"),
    ("repro.raft.node", "RaftNode"),
    ("repro.mongo.database", "MongoReplicaSet"),
    ("repro.mongo.client", "MongoClient"),
    ("repro.etcd.client", "EtcdClient"),
    ("repro.etcd.kv", "EtcdStore"),
    ("repro.resilience.buffer", "BufferedJobWriter"),
    ("repro.objectstore.mount", "BucketMount"),
    ("repro.objectstore.mount", "MountCache"),
    ("repro.objectstore.service", "ObjectStorageService"),
    ("repro.kube.scheduling.framework", "Scheduler"),
    ("repro.kube.controllers", "NodeController"),
    ("repro.kube.api", "KubeAPI"),
    ("repro.core.services", "Microservice"),
    ("repro.federation.bus", "FederationBus"),
    ("repro.federation.health", "CellHealthMonitor"),
    ("repro.federation.dispatcher", "FederationDispatcher"),
)


class UnmappedSite(RuntimeError):
    """A dispatch ran code that belongs to no known layer."""


def _import_class(module: str, name: str):
    import importlib

    return getattr(importlib.import_module(module), name)


def collect_instances(targets) -> Dict[str, list]:
    """Wrap each class's ``__init__`` to record its instances.

    Returns ``class name -> instances`` (filled as they are built).
    Costs one extra call per construction and nothing per event.
    """
    seen: Dict[str, list] = {}
    for module, name in targets:
        cls = _import_class(module, name)
        instances = seen.setdefault(name, [])
        original = cls.__init__

        def init(self, *args, _original=original, _instances=instances,
                 **kwargs):
            _original(self, *args, **kwargs)
            _instances.append(self)

        cls.__init__ = init
    return seen


def _sentinel(_event) -> None:
    """First callback of every traced event: marks the kernel's pop."""


class Tracer:
    """Span stack, layer self times, dispatch counts and timed counters."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = dict.fromkeys(LAYERS, 0.0)
        self.dispatches: Dict[str, int] = dict.fromkeys(LAYERS, 0)
        #: Dispatches per resumed code object (for per-site counters).
        self.code_dispatches: Counter = Counter()
        #: Child-time accumulators; [0] collects spans outside any step.
        self._stack: List[float] = [0.0]
        self._layer_of_code: Dict[object, str] = {}
        self._pending: List[tuple] = []
        self._next = 0
        self._mark = 0.0
        #: event -> issue time of an etcd client op still in flight.
        self._etcd_ops: Dict[object, float] = {}
        self.etcd_op_waits: List[float] = []
        #: pod name -> creation time of a pod not yet bound.
        self._pod_created: Dict[str, float] = {}
        self.pod_pending: List[float] = []
        self.profilers: List = []
        #: Oplog entries replication applied to secondaries.
        self.oplog_applied = 0

    # -- layer map -------------------------------------------------------------

    def layer_of_code(self, code) -> str:
        layer = self._layer_of_code.get(code)
        if layer is None:
            layer = self._layer_of_file(
                code.co_filename, getattr(code, "co_qualname", code.co_name))
            self._layer_of_code[code] = layer
        return layer

    @staticmethod
    def _layer_of_file(filename: str, where: str) -> str:
        parts = filename.replace("\\", "/").split("/")
        if "repro" in parts[:-1]:
            index = len(parts) - 2 - parts[-2::-1].index("repro")
            layer = LAYER_OF_PACKAGE.get(parts[index + 1])
            if layer is not None:
                return layer
        raise UnmappedSite(f"dispatch of {where} in {filename} maps to "
                           f"no layer")

    @staticmethod
    def code_of(callback):
        """The code a dispatch of ``callback`` resumes or calls."""
        owner = getattr(callback, "__self__", None)
        generator = getattr(owner, "generator", None)
        if generator is not None and hasattr(generator, "gi_code"):
            inner = generator.gi_yieldfrom
            while inner is not None and hasattr(inner, "gi_code"):
                generator = inner
                inner = generator.gi_yieldfrom
            return generator.gi_code
        function = getattr(callback, "__func__", callback)
        code = getattr(function, "__code__", None)
        if code is None:
            raise UnmappedSite(f"cannot resolve the code of {callback!r}")
        return code

    # -- kernel hooks ------------------------------------------------------------

    def install_kernel(self) -> None:
        from repro.perf.profiler import KernelProfiler
        from repro.sim.core import AllOf, AnyOf, Environment

        tracer = self
        conditions = (AnyOf, AllOf)

        class LayerProfiler(KernelProfiler):
            """KernelProfiler whose callback hook closes dispatch spans."""

            def __init__(self, env):
                super().__init__(env)
                self.conditions = 0
                # The kernel calls on_callback(callback, spawned) after
                # each callback: close that dispatch's span directly.
                self.on_callback = tracer._end_dispatch

            def on_schedule(self, event) -> None:
                depth = self.env._pending
                if depth > self.peak_heap:
                    self.peak_heap = depth
                if type(event) in conditions:
                    self.conditions += 1

        original_init = Environment.__init__
        original_step = Environment.step

        def init(env, *args, **kwargs):
            original_init(env, *args, **kwargs)
            tracer.profilers.append(LayerProfiler(env))

        code_of = self.code_of
        layer_of = self._layer_of_code

        def step(env):
            queue = env._queue
            if not queue:
                return original_step(env)
            when, _prio, _seq, head = queue[0]
            event = head if env._buckets is None else head[0][1]
            callbacks = event.callbacks
            pending = []
            for callback in callbacks:
                code = code_of(callback)
                layer = layer_of.get(code) or tracer.layer_of_code(code)
                pending.append((code, layer))
            callbacks.insert(0, _sentinel)
            if tracer._etcd_ops:
                issued = tracer._etcd_ops.pop(event, None)
                if issued is not None:
                    tracer.etcd_op_waits.append(when - issued)
            saved = (tracer._pending, tracer._next, tracer._mark)
            tracer._pending = pending
            tracer._next = 0
            stack = tracer._stack
            stack.append(0.0)
            start = tracer._mark = perf_counter()
            try:
                original_step(env)
            finally:
                end = perf_counter()
                child = stack.pop()
                tracer.self_s["sim"] += end - tracer._mark - child
                stack[-1] += end - start
                tracer._pending, tracer._next, tracer._mark = saved

        Environment.__init__ = init
        Environment.step = step

    def _end_dispatch(self, callback, _spawned: int = 0) -> None:
        now = perf_counter()
        stack = self._stack
        elapsed = now - self._mark - stack[-1]
        stack[-1] = 0.0
        self._mark = now
        if callback is _sentinel:
            self.self_s["sim"] += elapsed
            return
        code, layer = self._pending[self._next]
        self._next += 1
        self.self_s[layer] += elapsed
        self.dispatches[layer] += 1
        self.code_dispatches[code] += 1

    # -- entry-point spans -------------------------------------------------------

    def span(self, function, layer: str):
        stack = self._stack
        self_s = self.self_s

        def traced(*args, **kwargs):
            start = perf_counter()
            stack.append(0.0)
            try:
                return function(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                self_s[layer] += elapsed - stack.pop()
                stack[-1] += elapsed

        traced.__wrapped__ = function
        return traced

    def install_spans(self) -> None:
        for module, name, methods, layer in ENTRY_POINTS:
            cls = _import_class(module, name)
            for method in methods:
                function = cls.__dict__.get(method)
                if not callable(function):
                    raise AttributeError(f"{module}.{name}.{method} is not "
                                         f"a plain method")
                setattr(cls, method, self.span(function, layer))
        self._install_timers()

    def _install_timers(self) -> None:
        """Sim-time waits (etcd client ops, pod creation to binding) and
        the oplog entries replication applies."""
        from repro.etcd.client import EtcdClient
        from repro.kube.api import KubeAPI
        from repro.mongo.collection import Collection

        tracer = self
        call = EtcdClient._call

        def timed_call(client, action):
            event = call(client, action)
            tracer._etcd_ops[event] = client.env.now
            return event

        EtcdClient._call = timed_call
        apply_entry = Collection.apply_oplog_entry

        def counted_apply(collection, entry):
            tracer.oplog_applied += 1
            return apply_entry(collection, entry)

        Collection.apply_oplog_entry = counted_apply
        create_pod, bind_pod = KubeAPI.create_pod, KubeAPI.bind_pod

        def timed_create(api, pod):
            result = create_pod(api, pod)
            tracer._pod_created[pod.name] = api.env.now
            return result

        def timed_bind(api, pod, node_name):
            result = bind_pod(api, pod, node_name)
            created = tracer._pod_created.pop(pod.name, None)
            if created is not None:
                tracer.pod_pending.append(api.env.now - created)
            return result

        KubeAPI.create_pod = timed_create
        KubeAPI.bind_pod = timed_bind

    # -- report ----------------------------------------------------------------

    def reset_times(self) -> None:
        """Drop span time spent before the first event (set-up)."""
        for layer in self.self_s:
            self.self_s[layer] = 0.0

    def covered_s(self) -> float:
        return sum(self.self_s.values())


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _p50(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def layer_counters(tracer: Tracer,
                   found: Dict[str, list]) -> Dict[str, float]:
    """Deterministic per-layer work counts read off the built objects."""
    from repro.kube.events import FAILED_SCHEDULING
    from repro.mongo.database import MongoReplicaSet

    def total(cls: str, attr: str) -> float:
        return sum(getattr(obj, attr) for obj in found.get(cls, ()))

    platforms = found.get("FfDLPlatform", [])
    counters: Dict[str, float] = {}
    counters["raft.messages_sent"] = total("Network", "messages_sent")
    counters["raft.messages_dropped"] = total("Network", "messages_dropped")
    counters["raft.max_term"] = max(
        (node.current_term for node in found.get("RaftNode", ())),
        default=0)

    repl_code = MongoReplicaSet._replicate.__code__
    repl_wakeups = tracer.code_dispatches.get(repl_code, 0)
    counters["mongo.ops"] = total("MongoClient", "ops_issued")
    counters["mongo.retries"] = total("MongoClient", "retries")
    counters["mongo.failovers"] = sum(
        len(rs.failover_log) for rs in found.get("MongoReplicaSet", ()))
    counters["mongo.repl_wakeups"] = repl_wakeups
    counters["mongo.repl_useful_ratio"] = _ratio(
        tracer.oplog_applied, repl_wakeups)

    counters["etcd.ops"] = total("EtcdClient", "ops_issued")
    counters["etcd.retries"] = total("EtcdClient", "retries")
    counters["etcd.watcher_visits"] = total("EtcdStore", "watcher_visits")
    counters["etcd.op_wait_p50_sim_ms"] = 1000.0 * _p50(
        tracer.etcd_op_waits)

    writers = found.get("BufferedJobWriter", [])
    counters["resilience.writes_enqueued"] = sum(
        w.total_enqueued for w in writers)
    counters["resilience.writes_flushed"] = sum(
        w.total_flushed for w in writers)
    counters["resilience.peak_pending"] = max(
        (w.peak_pending for w in writers), default=0)

    counters["core.jobs_submitted"] = sum(len(p.jobs) for p in platforms)
    counters["core.api_requests"] = total("Microservice", "requests_served")
    counters["core.status_writes"] = sum(
        len(job.status.records) for p in platforms
        for job in p.jobs.values())

    mount_reads = total("BucketMount", "reads")
    counters["objectstore.mount_reads"] = mount_reads
    counters["objectstore.mount_hit_ratio"] = _ratio(
        total("MountCache", "hits"), mount_reads)
    counters["objectstore.downloads"] = total("ObjectStorageService",
                                              "downloads_started")
    counters["objectstore.mount_retries"] = total("BucketMount", "retries")

    hits = total("Scheduler", "filter_cache_hits")
    evals = total("Scheduler", "filter_evals")
    counters["kube.pods_scheduled"] = total("Scheduler", "pods_scheduled")
    counters["kube.failed_scheduling"] = sum(
        len(api.event_log.of_kind(FAILED_SCHEDULING))
        for api in found.get("KubeAPI", ()))
    counters["kube.filter_evals"] = evals
    counters["kube.filter_cache_hit_ratio"] = _ratio(hits, hits + evals)
    counters["kube.nodes_examined"] = total("Scheduler", "nodes_examined")
    counters["kube.evictions"] = total("NodeController", "evictions")
    counters["kube.pod_pending_p50_sim_s"] = _p50(tracer.pod_pending)

    dispatchers = found.get("FederationDispatcher", [])
    dispatched = sum(d.counters["dispatched"] for d in dispatchers)
    counters["federation.bus_messages"] = sum(
        bus.stats.messages for bus in found.get("FederationBus", ()))
    counters["federation.probes_sent"] = total("CellHealthMonitor",
                                               "probes_sent")
    counters["federation.probes_failed"] = total("CellHealthMonitor",
                                                 "probes_failed")
    counters["federation.migrations"] = sum(
        d.counters["migrations"] for d in dispatchers)
    counters["federation.dispatch_ratio"] = _ratio(
        sum(len(d.intents()) for d in dispatchers), dispatched)
    return counters
