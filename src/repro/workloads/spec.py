"""Declarative workload specifications.

ROADMAP item 3: the load model originally spoke exactly one dialect --
the paper's 2009 H.264 camcorder pipeline, hardcoded as imperative
Python in :class:`~repro.usecase.pipeline.VideoRecordingUseCase`.  A
:class:`WorkloadSpec` re-expresses such a pipeline as *data*:

- a **parameter schema** (:class:`WorkloadParam`): the knobs a caller
  may turn, with defaults, bounds and documentation;
- **derived symbols**: named arithmetic expressions (evaluated by
  :mod:`repro.workloads.expr`) over the parameters and the per-level
  intrinsics (frame pixels, fps, bitrate, reference-frame count,
  pixel-format bit depths);
- **buffer declarations** (:class:`BufferDecl`): the execution-memory
  frame/stream buffers, with expression-valued sizes and instance
  counts (``ref_0 .. ref_{n_ref-1}``) and an optional ``conserved``
  flag declaring that reads and writes of the buffer must balance --
  a per-spec traffic oracle the tests check on every zoo member;
- **stages** (:class:`StageSpec`): the pipeline stages in order, each
  with read/write traffic declarations (:class:`TrafficDecl`,
  expression-valued bits per frame, optionally gated by a ``when``
  condition or fanned out over a counted buffer's instances) and a
  per-stage traffic ``scale`` factor;
- **frame/GOP structure** (:class:`GopSpec`): the steady-state GOP
  length and which parameter flips the spec into its intra-coded
  variant, so :mod:`repro.analysis.steadystate` works on any workload;
- optional **metrics**: named derived quantities that are *about* the
  workload rather than traffic (e.g. the documented quality cost of a
  lossy embedded-compression ratio).

``spec.instantiate(level, **params)`` binds the spec to one
H.264-style level (the source of frame geometry, frame rate, bitrate
and reference count) and yields a :class:`WorkloadInstance` -- the
duck type :class:`~repro.load.model.VideoRecordingLoadModel` and the
sweep machinery consume: ``buffers()``, ``stages()``,
``total_bytes_per_frame()``.  The builtin ``h264_camcorder`` spec
(:mod:`repro.workloads.zoo`) reproduces the legacy class bit for bit;
``verify-paper`` staying exact is the proof the refactor preserved the
paper's numbers.

Specs round-trip losslessly through :meth:`WorkloadSpec.to_dict` /
:meth:`WorkloadSpec.from_dict`, so new pipelines can be loaded as
JSON, registered (:mod:`repro.workloads.registry`) and swept without
touching the engines.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.workloads.expr import Number, evaluate, validate_symbols

#: Serialisation schema tag of :meth:`WorkloadSpec.to_dict`.
SPEC_SCHEMA = "repro-workload/1"

#: Stage categories, the Table I split: image processing vs video
#: coding.  Decode-oriented zoo members map their bitstream/recon
#: stages onto "coding" and their raster stages onto "image".
STAGE_CATEGORIES = ("image", "coding")

#: Symbols every instantiation environment provides before parameters
#: and derived expressions are layered on top -- the per-level
#: intrinsics and the pixel-format bit depths of
#: :class:`~repro.usecase.formats.PixelFormat`.
INTRINSIC_SYMBOLS = (
    "n",             # frame pixels of the level
    "frame_width",
    "frame_height",
    "fps",
    "bitrate_mbps",  # the level's maximum output bitrate
    "n_ref",         # the level's reference-frame count
    "bayer",         # bits/pel, Bayer RGB
    "yuv422",        # bits/pel, YUV422
    "yuv420",        # bits/pel, YUV420
    "rgb888",        # bits/pel, RGB888
)


# ---------------------------------------------------------------------------
# Instantiated traffic model (the duck type the load model consumes)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BufferSpec:
    """One execution-memory frame/stream buffer."""

    name: str
    size_bytes: int

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("buffer name must be non-empty")
        if self.size_bytes <= 0:
            raise ConfigurationError(
                f"buffer {self.name!r} must have positive size, got {self.size_bytes}"
            )


@dataclass(frozen=True)
class StageTraffic:
    """Per-frame execution-memory traffic of one pipeline stage.

    ``reads``/``writes`` list ``(buffer_name, bits)`` pairs; Table I's
    cell for the stage is their combined total.
    """

    name: str
    #: ``"image"`` (image processing) or ``"coding"`` (video coding).
    category: str
    reads: Tuple[Tuple[str, float], ...] = ()
    writes: Tuple[Tuple[str, float], ...] = ()

    def __post_init__(self) -> None:
        if self.category not in STAGE_CATEGORIES:
            raise ConfigurationError(
                f"category must be 'image' or 'coding', got {self.category!r}"
            )
        for buf, bits in self.reads + self.writes:
            if bits < 0:
                raise ConfigurationError(
                    f"stage {self.name!r}: negative traffic on {buf!r}"
                )

    @property
    def read_bits(self) -> float:
        """Bits read from execution memory per frame."""
        return sum(bits for _, bits in self.reads)

    @property
    def write_bits(self) -> float:
        """Bits written to execution memory per frame."""
        return sum(bits for _, bits in self.writes)

    @property
    def total_bits(self) -> float:
        """Combined consumption + production (the Table I cell)."""
        return self.read_bits + self.write_bits


# ---------------------------------------------------------------------------
# Declarative spec vocabulary
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WorkloadParam:
    """One knob of a workload's parameter schema."""

    name: str
    default: Number
    doc: str = ""
    minimum: Optional[float] = None
    maximum: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.name or not self.name.isidentifier():
            raise ConfigurationError(
                f"parameter name must be an identifier, got {self.name!r}"
            )
        self.check(self.default)

    def check(self, value: Any) -> Number:
        """Validate one supplied value against the schema."""
        if not isinstance(value, (bool, int, float)):
            raise ConfigurationError(
                f"parameter {self.name!r} must be a number, got {value!r}"
            )
        if self.minimum is not None and value < self.minimum:
            raise ConfigurationError(
                f"parameter {self.name!r} must be >= {self.minimum}, got {value}"
            )
        if self.maximum is not None and value > self.maximum:
            raise ConfigurationError(
                f"parameter {self.name!r} must be <= {self.maximum}, got {value}"
            )
        return value


@dataclass(frozen=True)
class BufferDecl:
    """Declaration of one (possibly counted) execution-memory buffer.

    ``size`` is an expression in bytes.  An empty ``count`` declares a
    single buffer named ``name``; a non-empty ``count`` expression
    declares instances ``name_0 .. name_{count-1}`` (the reference-
    frame list idiom).  ``conserved=True`` declares the traffic oracle
    "everything written into this buffer is read back out": the
    instantiated stages' total read bits of the buffer must equal the
    total write bits (checked by :meth:`WorkloadInstance.check_traffic_oracles`).
    """

    name: str
    size: str
    count: str = ""
    conserved: bool = False

    def __post_init__(self) -> None:
        if not self.name or not self.name.isidentifier():
            raise ConfigurationError(
                f"buffer name must be an identifier, got {self.name!r}"
            )
        validate_symbols(self.size)
        if self.count:
            validate_symbols(self.count)


@dataclass(frozen=True)
class TrafficDecl:
    """One read or write entry of a stage.

    ``bits`` is the per-frame traffic expression.  ``when`` (optional
    expression) gates the entry: a falsy value drops it from the
    instantiated stage.  ``each=True`` fans the entry out over every
    instance of a counted buffer, in instance order, ``bits`` each --
    the motion-estimation idiom of reading every reference frame.
    """

    buffer: str
    bits: str
    when: str = ""
    each: bool = False

    def __post_init__(self) -> None:
        if not self.buffer:
            raise ConfigurationError("traffic declaration needs a buffer name")
        validate_symbols(self.bits)
        if self.when:
            validate_symbols(self.when)


@dataclass(frozen=True)
class StageSpec:
    """One pipeline stage: name, category, traffic, scale factor.

    ``scale`` is a per-stage traffic scale-factor expression applied
    to every read/write of the stage (default ``"1"``, which is
    applied as the identity -- it never perturbs the arithmetic of an
    unscaled stage).
    """

    name: str
    category: str
    reads: Tuple[TrafficDecl, ...] = ()
    writes: Tuple[TrafficDecl, ...] = ()
    scale: str = "1"

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("stage name must be non-empty")
        if self.category not in STAGE_CATEGORIES:
            raise ConfigurationError(
                f"stage {self.name!r}: category must be one of "
                f"{STAGE_CATEGORIES}, got {self.category!r}"
            )
        validate_symbols(self.scale)


@dataclass(frozen=True)
class GopSpec:
    """Frame/GOP structure of a workload.

    ``length`` is the steady-state GOP length (1 = every frame is
    identical, no prediction structure).  ``intra_param`` names the
    boolean parameter that flips the spec into its intra-coded (I)
    frame variant; ``None`` means the workload has no I/P distinction
    and the GOP analysis sees a flat profile.
    """

    length: int = 1
    intra_param: Optional[str] = None

    def __post_init__(self) -> None:
        if self.length < 1:
            raise ConfigurationError(
                f"gop length must be >= 1, got {self.length}"
            )


# ---------------------------------------------------------------------------
# The spec itself
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WorkloadSpec:
    """A complete declarative workload: the Fig. 1 idiom as data."""

    name: str
    title: str
    description: str = ""
    params: Tuple[WorkloadParam, ...] = ()
    #: Ordered ``(symbol, expression)`` pairs, evaluated over the
    #: intrinsics + parameters; later entries may use earlier ones.
    derived: Tuple[Tuple[str, str], ...] = ()
    buffers: Tuple[BufferDecl, ...] = ()
    stages: Tuple[StageSpec, ...] = ()
    gop: GopSpec = field(default_factory=GopSpec)
    #: Named derived quantities about the workload (not traffic), e.g.
    #: a lossy codec's documented quality cost.
    metrics: Tuple[Tuple[str, str], ...] = ()

    def __post_init__(self) -> None:
        if not self.name or "/" in self.name or " " in self.name:
            raise ConfigurationError(
                f"workload name must be a non-empty token, got {self.name!r}"
            )
        if not self.stages:
            raise ConfigurationError(
                f"workload {self.name!r} declares no stages"
            )
        if not self.buffers:
            raise ConfigurationError(
                f"workload {self.name!r} declares no buffers"
            )
        seen: Dict[str, str] = {sym: "intrinsic" for sym in INTRINSIC_SYMBOLS}
        for param in self.params:
            if param.name in seen:
                raise ConfigurationError(
                    f"workload {self.name!r}: parameter {param.name!r} "
                    f"shadows an existing {seen[param.name]} symbol"
                )
            seen[param.name] = "parameter"
        for symbol, expression in self.derived:
            if symbol in seen:
                raise ConfigurationError(
                    f"workload {self.name!r}: derived symbol {symbol!r} "
                    f"shadows an existing {seen[symbol]} symbol"
                )
            if not symbol.isidentifier():
                raise ConfigurationError(
                    f"workload {self.name!r}: derived symbol {symbol!r} "
                    "must be an identifier"
                )
            validate_symbols(expression)
            seen[symbol] = "derived"
        buffer_names = [decl.name for decl in self.buffers]
        if len(set(buffer_names)) != len(buffer_names):
            raise ConfigurationError(
                f"workload {self.name!r}: duplicate buffer names "
                f"{buffer_names}"
            )
        declared = {decl.name: decl for decl in self.buffers}
        stage_names = [stage.name for stage in self.stages]
        if len(set(stage_names)) != len(stage_names):
            raise ConfigurationError(
                f"workload {self.name!r}: duplicate stage names {stage_names}"
            )
        for stage in self.stages:
            for entry in stage.reads + stage.writes:
                decl = declared.get(entry.buffer)
                if decl is None:
                    raise ConfigurationError(
                        f"workload {self.name!r}, stage {stage.name!r}: "
                        f"unknown buffer {entry.buffer!r}; declared buffers: "
                        f"{', '.join(sorted(declared))}"
                    )
                if entry.each and not decl.count:
                    raise ConfigurationError(
                        f"workload {self.name!r}, stage {stage.name!r}: "
                        f"'each' traffic needs a counted buffer, but "
                        f"{entry.buffer!r} is a single buffer"
                    )
        if self.gop.intra_param is not None:
            if self.gop.intra_param not in {p.name for p in self.params}:
                raise ConfigurationError(
                    f"workload {self.name!r}: gop intra_param "
                    f"{self.gop.intra_param!r} is not a declared parameter"
                )
        metric_names = [name for name, _ in self.metrics]
        if len(set(metric_names)) != len(metric_names):
            raise ConfigurationError(
                f"workload {self.name!r}: duplicate metric names "
                f"{metric_names}"
            )
        for _, expression in self.metrics:
            validate_symbols(expression)

    # -- parameters ---------------------------------------------------------

    def param_defaults(self) -> Dict[str, Number]:
        """The schema's default parameter values."""
        return {param.name: param.default for param in self.params}

    def resolve_params(self, overrides: Mapping[str, Any]) -> Dict[str, Number]:
        """Defaults overlaid with ``overrides``, validated."""
        schema = {param.name: param for param in self.params}
        unknown = sorted(set(overrides) - set(schema))
        if unknown:
            raise ConfigurationError(
                f"workload {self.name!r} has no parameter(s) "
                f"{', '.join(repr(u) for u in unknown)}; schema: "
                f"{', '.join(sorted(schema)) or '(none)'}"
            )
        values = self.param_defaults()
        for key, value in overrides.items():
            values[key] = schema[key].check(value)
        return values

    # -- instantiation ------------------------------------------------------

    def instantiate(self, level: "H264Level", **params: Any) -> "WorkloadInstance":
        """Bind the spec to one level (and parameter overrides)."""
        return WorkloadInstance(self, level, self.resolve_params(params))

    def bind(self, **params: Any) -> "BoundWorkload":
        """Partially apply parameter overrides, leaving the level open
        (the form sweep jobs carry)."""
        resolved = self.resolve_params(params)
        return BoundWorkload(
            spec=self, params=tuple(sorted(resolved.items()))
        )

    # -- serialisation ------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """Lossless JSON-able projection (see :meth:`from_dict`)."""
        return {
            "schema": SPEC_SCHEMA,
            "name": self.name,
            "title": self.title,
            "description": self.description,
            "params": [
                {
                    "name": p.name,
                    "default": p.default,
                    "doc": p.doc,
                    "minimum": p.minimum,
                    "maximum": p.maximum,
                }
                for p in self.params
            ],
            "derived": [[symbol, expression] for symbol, expression in self.derived],
            "buffers": [
                {
                    "name": b.name,
                    "size": b.size,
                    "count": b.count,
                    "conserved": b.conserved,
                }
                for b in self.buffers
            ],
            "stages": [
                {
                    "name": s.name,
                    "category": s.category,
                    "scale": s.scale,
                    "reads": [
                        {
                            "buffer": t.buffer,
                            "bits": t.bits,
                            "when": t.when,
                            "each": t.each,
                        }
                        for t in s.reads
                    ],
                    "writes": [
                        {
                            "buffer": t.buffer,
                            "bits": t.bits,
                            "when": t.when,
                            "each": t.each,
                        }
                        for t in s.writes
                    ],
                }
                for s in self.stages
            ],
            "gop": {"length": self.gop.length, "intra_param": self.gop.intra_param},
            "metrics": [[name, expression] for name, expression in self.metrics],
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "WorkloadSpec":
        """Rebuild a spec from :meth:`to_dict` output.

        Round trip is lossless: ``from_dict(spec.to_dict()) == spec``.
        """
        if not isinstance(payload, Mapping):
            raise ConfigurationError(
                f"workload payload must be a mapping, got {type(payload).__name__}"
            )
        schema = payload.get("schema")
        if schema != SPEC_SCHEMA:
            raise ConfigurationError(
                f"unsupported workload schema {schema!r} (expected "
                f"{SPEC_SCHEMA!r})"
            )
        try:
            gop_payload = payload.get("gop", {})
            return cls(
                name=payload["name"],
                title=payload["title"],
                description=payload.get("description", ""),
                params=tuple(
                    WorkloadParam(
                        name=p["name"],
                        default=p["default"],
                        doc=p.get("doc", ""),
                        minimum=p.get("minimum"),
                        maximum=p.get("maximum"),
                    )
                    for p in payload.get("params", ())
                ),
                derived=tuple(
                    (symbol, expression)
                    for symbol, expression in payload.get("derived", ())
                ),
                buffers=tuple(
                    BufferDecl(
                        name=b["name"],
                        size=b["size"],
                        count=b.get("count", ""),
                        conserved=b.get("conserved", False),
                    )
                    for b in payload.get("buffers", ())
                ),
                stages=tuple(
                    StageSpec(
                        name=s["name"],
                        category=s["category"],
                        scale=s.get("scale", "1"),
                        reads=tuple(
                            TrafficDecl(
                                buffer=t["buffer"],
                                bits=t["bits"],
                                when=t.get("when", ""),
                                each=t.get("each", False),
                            )
                            for t in s.get("reads", ())
                        ),
                        writes=tuple(
                            TrafficDecl(
                                buffer=t["buffer"],
                                bits=t["bits"],
                                when=t.get("when", ""),
                                each=t.get("each", False),
                            )
                            for t in s.get("writes", ())
                        ),
                    )
                    for s in payload.get("stages", ())
                ),
                gop=GopSpec(
                    length=gop_payload.get("length", 1),
                    intra_param=gop_payload.get("intra_param"),
                ),
                metrics=tuple(
                    (name, expression)
                    for name, expression in payload.get("metrics", ())
                ),
            )
        except KeyError as exc:
            raise ConfigurationError(
                f"workload payload is missing required field {exc.args[0]!r}"
            ) from None

    def structure_digest(self) -> str:
        """SHA-256 over the spec's *semantic* structure.

        Projects everything that determines generated traffic --
        parameter schema, derived expressions, buffers, stages, GOP --
        and nothing cosmetic (title, description, docs).  Embedded in
        every sweep job's canonical key, so two registered specs that
        share a name but differ in structure can never alias stored
        results.

        Computed once per spec: the digest is stored on the instance
        outside the dataclass fields, so it shows in none of ``==``,
        ``hash``, ``repr``, :meth:`to_dict` or the canonical key
        projection, and it travels with the spec through pickling.
        """
        digest = self.__dict__.get("_structure_digest")
        if digest is None:
            digest = self._compute_structure_digest()
            object.__setattr__(self, "_structure_digest", digest)
        return digest

    def _compute_structure_digest(self) -> str:
        import json

        fragment = {
            "params": [
                [p.name, p.default, p.minimum, p.maximum] for p in self.params
            ],
            "derived": [list(pair) for pair in self.derived],
            "buffers": [
                [b.name, b.size, b.count, b.conserved] for b in self.buffers
            ],
            "stages": [
                [
                    s.name,
                    s.category,
                    s.scale,
                    [[t.buffer, t.bits, t.when, t.each] for t in s.reads],
                    [[t.buffer, t.bits, t.when, t.each] for t in s.writes],
                ]
                for s in self.stages
            ],
            "gop": [self.gop.length, self.gop.intra_param],
        }
        blob = json.dumps(fragment, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def describe(self) -> str:
        """One line for listings: name, stage/buffer/param counts."""
        return (
            f"{self.name}: {self.title} ({len(self.stages)} stages, "
            f"{len(self.buffers)} buffers, {len(self.params)} params)"
        )


# ---------------------------------------------------------------------------
# Bound and instantiated workloads
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundWorkload:
    """A spec with its parameters resolved, the level still open.

    This is the form sweep jobs carry: picklable, hashable into
    canonical keys, instantiable per level inside a pool worker.
    ``params`` is the *fully resolved* sorted parameter tuple
    (defaults filled in), so binding explicitly to a default value and
    not binding at all produce equal objects -- and equal cache keys.
    """

    spec: WorkloadSpec
    params: Tuple[Tuple[str, Number], ...] = ()

    @property
    def name(self) -> str:
        """The underlying spec's registry name."""
        return self.spec.name

    def param_dict(self) -> Dict[str, Number]:
        """The resolved parameters as a dict."""
        return dict(self.params)

    def with_params(self, **overrides: Any) -> "BoundWorkload":
        """Re-bind with additional overrides on top of the current ones."""
        merged = self.param_dict()
        merged.update(overrides)
        return self.spec.bind(**merged)

    def instantiate(self, level: "H264Level") -> "WorkloadInstance":
        """Instantiate for one level."""
        return WorkloadInstance(self.spec, level, self.spec.resolve_params(self.param_dict()))

    def intra_variant(self, intra: bool) -> "BoundWorkload":
        """The bound workload with its GOP intra flag set to ``intra``.

        Returns ``self`` unchanged when the spec declares no
        ``intra_param`` (no I/P distinction).
        """
        if self.spec.gop.intra_param is None:
            return self
        return self.with_params(**{self.spec.gop.intra_param: intra})

    def identity(self) -> Dict[str, Any]:
        """Canonical-key material: everything that determines the
        workload's traffic, nothing that does not (see
        :func:`repro.keys.canonical_key` and
        :func:`repro.analysis.sweep._job_description`)."""
        return {
            "workload": self.spec.name,
            "params": self.param_dict(),
            "structure": self.spec.structure_digest(),
        }

    def describe(self) -> str:
        """One line: spec name plus non-default parameters."""
        defaults = self.spec.param_defaults()
        diffs = {
            key: value
            for key, value in self.params
            if defaults.get(key) != value
        }
        if not diffs:
            return self.spec.name
        rendered = ", ".join(f"{k}={v}" for k, v in sorted(diffs.items()))
        return f"{self.spec.name}({rendered})"


class WorkloadInstance:
    """One spec bound to one level: the concrete traffic model.

    Quacks like the legacy
    :class:`~repro.usecase.pipeline.VideoRecordingUseCase` where the
    load model and the analyses need it to: :meth:`buffers`,
    :meth:`stages`, :meth:`total_bytes_per_frame` and the Table-I
    split totals.  Everything is computed eagerly at construction, so
    a broken expression fails here -- with the spec and expression
    named -- rather than deep inside a sweep.
    """

    def __init__(
        self,
        spec: WorkloadSpec,
        level: "H264Level",
        params: Mapping[str, Number],
    ) -> None:
        self.spec = spec
        self.level = level
        self.params = dict(params)

        from repro.usecase.formats import PixelFormat

        env: Dict[str, Number] = {
            "n": level.frame.pixels,
            "frame_width": level.frame.width,
            "frame_height": level.frame.height,
            "fps": level.fps,
            "bitrate_mbps": level.max_bitrate_mbps,
            "n_ref": level.reference_frames,
            "bayer": PixelFormat.BAYER_RGB.bits_per_pixel,
            "yuv422": PixelFormat.YUV422.bits_per_pixel,
            "yuv420": PixelFormat.YUV420.bits_per_pixel,
            "rgb888": PixelFormat.RGB888.bits_per_pixel,
        }
        env.update(self.params)
        for symbol, expression in spec.derived:
            env[symbol] = evaluate(expression, env)
        self.env = env

        self._buffers = self._build_buffers()
        self._stages = self._build_stages()

    # -- construction helpers -----------------------------------------------

    def _buffer_int(self, decl: BufferDecl, expression: str, what: str) -> int:
        value = evaluate(expression, self.env)
        if isinstance(value, bool) or (
            isinstance(value, float) and value != int(value)
        ):
            raise ConfigurationError(
                f"workload {self.spec.name!r}, buffer {decl.name!r}: "
                f"{what} expression {expression!r} must yield an integer, "
                f"got {value!r}"
            )
        return int(value)

    def _build_buffers(self) -> Tuple[BufferSpec, ...]:
        out: List[BufferSpec] = []
        self._instances: Dict[str, Tuple[str, ...]] = {}
        for decl in self.spec.buffers:
            size = self._buffer_int(decl, decl.size, "size")
            if decl.count:
                count = self._buffer_int(decl, decl.count, "count")
                if count < 0:
                    raise ConfigurationError(
                        f"workload {self.spec.name!r}, buffer {decl.name!r}: "
                        f"count must be >= 0, got {count}"
                    )
                names = tuple(f"{decl.name}_{i}" for i in range(count))
            else:
                names = (decl.name,)
            self._instances[decl.name] = names
            for instance in names:
                out.append(BufferSpec(instance, size))
        return tuple(out)

    def _resolve_traffic(
        self, stage: StageSpec, entries: Sequence[TrafficDecl], scale: Number
    ) -> Tuple[Tuple[str, float], ...]:
        resolved: List[Tuple[str, float]] = []
        for entry in entries:
            if entry.when and not evaluate(entry.when, self.env):
                continue
            bits = evaluate(entry.bits, self.env)
            if scale != 1:
                bits = bits * scale
            if entry.each:
                for instance in self._instances[entry.buffer]:
                    resolved.append((instance, bits))
            else:
                names = self._instances[entry.buffer]
                if len(names) != 1:
                    raise ConfigurationError(
                        f"workload {self.spec.name!r}, stage {stage.name!r}: "
                        f"buffer {entry.buffer!r} has {len(names)} instances; "
                        "use each=True to fan traffic over them"
                    )
                resolved.append((names[0], bits))
        return tuple(resolved)

    def _build_stages(self) -> Tuple[StageTraffic, ...]:
        out: List[StageTraffic] = []
        for stage in self.spec.stages:
            scale = evaluate(stage.scale, self.env)
            if scale < 0:
                raise ConfigurationError(
                    f"workload {self.spec.name!r}, stage {stage.name!r}: "
                    f"scale must be >= 0, got {scale!r}"
                )
            out.append(
                StageTraffic(
                    name=stage.name,
                    category=stage.category,
                    reads=self._resolve_traffic(stage, stage.reads, scale),
                    writes=self._resolve_traffic(stage, stage.writes, scale),
                )
            )
        return tuple(out)

    # -- the load-model duck type -------------------------------------------

    def buffers(self) -> List[BufferSpec]:
        """Execution-memory buffers, in declaration (= layout) order."""
        return list(self._buffers)

    def stages(self) -> List[StageTraffic]:
        """The pipeline stages in order, with per-frame traffic."""
        return list(self._stages)

    def image_processing_bits_per_frame(self) -> float:
        """Table I: the image-processing category total."""
        return sum(s.total_bits for s in self._stages if s.category == "image")

    def video_coding_bits_per_frame(self) -> float:
        """Table I: the video-coding category total."""
        return sum(s.total_bits for s in self._stages if s.category == "coding")

    def total_bits_per_frame(self) -> float:
        """Per-frame execution-memory traffic in bits."""
        return self.image_processing_bits_per_frame() + self.video_coding_bits_per_frame()

    def total_bytes_per_frame(self) -> float:
        """Per-frame execution-memory traffic in bytes."""
        return self.total_bits_per_frame() / 8.0

    def bandwidth_bytes_per_s(self) -> float:
        """Sustained execution-memory bandwidth in bytes/s."""
        return self.total_bytes_per_frame() * self.level.fps

    # -- introspection ------------------------------------------------------

    def value(self, symbol: str) -> Number:
        """Look up one environment symbol (intrinsic, parameter or
        derived)."""
        try:
            return self.env[symbol]
        except KeyError:
            raise ConfigurationError(
                f"workload {self.spec.name!r} has no symbol {symbol!r}; "
                f"known symbols: {', '.join(sorted(self.env))}"
            ) from None

    def metric(self, name: str) -> Number:
        """Evaluate one declared metric (e.g. a quality-cost figure)."""
        for metric_name, expression in self.spec.metrics:
            if metric_name == name:
                return evaluate(expression, self.env)
        raise ConfigurationError(
            f"workload {self.spec.name!r} declares no metric {name!r}; "
            f"declared: {', '.join(n for n, _ in self.spec.metrics) or '(none)'}"
        )

    def metrics(self) -> Dict[str, Number]:
        """All declared metrics, evaluated."""
        return {
            name: evaluate(expression, self.env)
            for name, expression in self.spec.metrics
        }

    def check_traffic_oracles(self) -> List[str]:
        """Evaluate the spec's declared invariants; returns violations.

        - every stage's per-buffer traffic is non-negative (enforced
          structurally by :class:`StageTraffic`, re-checked here so a
          custom spec gets one entry point for all oracles);
        - every ``conserved`` buffer's total read bits equal its total
          write bits across the whole pipeline.
        """
        problems: List[str] = []
        read_totals: Dict[str, float] = {}
        write_totals: Dict[str, float] = {}
        for stage in self._stages:
            for buffer_name, bits in stage.reads:
                if bits < 0:
                    problems.append(
                        f"stage {stage.name!r} reads negative bits on "
                        f"{buffer_name!r}"
                    )
                read_totals[buffer_name] = read_totals.get(buffer_name, 0.0) + bits
            for buffer_name, bits in stage.writes:
                if bits < 0:
                    problems.append(
                        f"stage {stage.name!r} writes negative bits on "
                        f"{buffer_name!r}"
                    )
                write_totals[buffer_name] = write_totals.get(buffer_name, 0.0) + bits
        for decl in self.spec.buffers:
            if not decl.conserved:
                continue
            for instance in self._instances[decl.name]:
                reads = read_totals.get(instance, 0.0)
                writes = write_totals.get(instance, 0.0)
                if reads != writes:
                    problems.append(
                        f"buffer {instance!r} is declared conserved but "
                        f"reads {reads!r} bits vs writes {writes!r} bits"
                    )
        return problems

    def describe(self) -> str:
        """One-line summary for reports."""
        return (
            f"{self.spec.name} {self.level.column_title}: "
            f"{self.total_bits_per_frame() / 1e6:.1f} Mb/frame, "
            f"{self.bandwidth_bytes_per_s() / 1e9:.2f} GB/s"
        )


# typing-only import placed last to avoid a cycle at module load
from typing import TYPE_CHECKING  # noqa: E402

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.usecase.levels import H264Level
