"""Declarative campaign specifications: axes expanded into a run matrix.

A :class:`CampaignSpec` names the axes of a sweep — systems × scenarios ×
fault presets × modes × seeds × property selections × workloads × backends
— plus the settings shared by every cell (durations, deployment size,
churn, options).  Everything that is particular to one axis is declared
once, in its row of :data:`AXES`: how raw values are normalized, how a cell
value is labelled in run ids and rollups, which registry validates it, and
whether it is restricted to live cells.  :meth:`CampaignSpec.expand`,
:func:`parse_axes` (the ``--axes`` parser of ``python -m repro
campaign``), the campaign report's rollups and the runner are loops over
that table.  A Python caller builds the spec directly and hands it to
:func:`~repro.campaign.runner.run_campaign`.

:meth:`CampaignSpec.expand` validates every axis value and produces the
full cross product as a list of :class:`RunSpec` cells, each with a stable
``run_id`` so a partially completed campaign can be resumed from its JSONL
result store.
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping, Optional, Sequence, Union

from ..api.experiment import Experiment, parse_mode
from ..api.registry import get_system, list_systems
from ..backends import get_backend
from ..faults.presets import list_presets, resolve_preset
from ..properties import select_properties

#: The combo separator inside one axis value: the faults-axis value
#: ``"partition+delay"`` is a single cell injecting both presets at once,
#: and the properties-axis value ``"randtree.*+chord.*"`` is a single cell
#: checking both selections.
COMBO_SEPARATOR = "+"

#: ``--axes`` token expanding to every registered value of an axis.
ALL = "all"

#: Modes-axis value dispatching the cell to the falsification pipeline
#: (:mod:`repro.attack`: hunt → minimize → replay) instead of a single
#: live run.  Not a controller mode — attack cells run the controller off.
ATTACK_MODE = "attack"

#: Default of an axis whose cells have none: the axis itself then defaults
#: to every registered value (spelled ``None`` on the spec).
_REQUIRED = object()


def _itself(value: Any) -> Any:
    return value


def _single(token: str) -> Iterable[Any]:
    return (token,)


def _mode(value: Any) -> str:
    if str(value).lower() == ATTACK_MODE:
        return ATTACK_MODE
    return parse_mode(value).value


def _seed_chunk(chunk: str) -> Iterable[int]:
    """One seeds-axis token: ``"3"`` or an inclusive range ``"0-7"``."""
    low, sep, high = chunk.strip().partition("-")
    if sep and low and high:
        if int(high) < int(low):
            raise ValueError(f"empty seed range {chunk!r}")
        return range(int(low), int(high) + 1)
    return (int(chunk),)


@dataclass(frozen=True)
class Axis:
    """One campaign axis: the single declaration every consumer reads."""

    #: the :class:`CampaignSpec` field holding the axis values.
    field: str
    #: the :class:`RunSpec` field holding one cell's value.
    cell: str
    #: ``--axes`` keys: the canonical one, then its aliases.
    keys: tuple[str, ...]
    #: ``--axes`` example shown by ``campaign --help``.
    example: str
    #: canonical value of the cell when the axis is not swept.
    default: Any = None
    #: keyword spellings and the canonical value each stands for; the first
    #: word of a value is also its label.
    words: tuple[tuple[str, Any], ...] = ()
    #: the canonical value is a tuple of names, spelled ``a+b`` in strings.
    combo: bool = False
    #: canonical form of a single (non-keyword, non-combo) value.
    coerce: Callable[[Any], Any] = _itself
    #: ``--axes`` token → the values it stands for (seed ranges).
    split: Callable[[str], Iterable[Any]] = _single
    #: every registered value, for axes that accept ``all``.
    every: Optional[Callable[[], list]] = None
    #: ``run_id`` segment ``prefix=label``; empty for a positional segment.
    prefix: str = ""
    #: omit the segment when the cell holds the default, so stores written
    #: before the axis existed keep matching their run ids.
    elide: bool = False
    #: rollup name in the campaign aggregate.
    rollup: str = ""
    #: always present in the aggregate (rollup and run rows); otherwise only
    #: when some cell leaves the default, so aggregates written before the
    #: axis existed reproduce byte for byte.
    in_aggregate: bool = True
    #: ``check(value, systems)`` raises for a value no registry knows.
    check: Optional[Callable[[Any, Sequence[str]], Any]] = None
    #: refusal raised when a non-default value meets a search scenario
    #: (which would silently ignore it while still labelling the records).
    live_only: Optional[str] = None
    #: ``apply(experiment, run)`` carries a non-default cell value into the
    #: worker's builder.
    apply: Optional[Callable[[Experiment, "RunSpec"], Any]] = None

    def normalize(self, value: Any) -> Any:
        """Raw string / sequence / ``None`` → the canonical cell value."""
        if value is None:
            if self.default is _REQUIRED:
                raise ValueError(f"a run needs a {self.cell}")
            return self.default
        if isinstance(value, str):
            for word, meaning in self.words:
                if value == word:
                    return meaning
            if self.combo:
                return tuple(name for name in value.split(COMBO_SEPARATOR)
                             if name)
        elif self.combo:
            return tuple(value)
        return self.coerce(value)

    def label(self, value: Any) -> Any:
        """Canonical value → its spelling in run ids, axes and rollups."""
        for word, meaning in self.words:
            if value == meaning:
                return word
        return COMBO_SEPARATOR.join(value) if self.combo else value

    def segment(self, value: Any) -> Optional[str]:
        """The ``run_id`` segment of a cell value (``None``: elided)."""
        if self.elide and value == self.default:
            return None
        label = str(self.label(value))
        return f"{self.prefix}={label}" if self.prefix else label

    def parse(self, tokens: Sequence[str]) -> Optional[list]:
        """``--axes`` tokens → the :class:`CampaignSpec` value of the axis.

        A keyword for the default cell becomes ``None``.  ``all`` may
        arrive mixed with named values when repeated ``--axes`` flags were
        merged; it subsumes them, but not the default cell, which stays an
        explicit extra value.
        """
        values: list = []
        for token in tokens:
            if (token, self.default) in self.words:
                values.append(None)
            elif token != ALL or self.every is None:
                values.extend(self.split(token))
        if ALL in tokens and self.every is not None:
            if self.default is _REQUIRED:
                return None
            values = self.every() + ([None] if None in values else [])
        return values


def scenario_kind(system: str, scenario: Optional[str]) -> str:
    """``"live"`` for a plain live run, else the named scenario's kind."""
    if scenario is None:
        return "live"
    return get_system(system).scenario(scenario).kind


def _in_every_system(lookup: str) -> Callable[[str, Sequence[str]], None]:
    def check(name: str, systems: Sequence[str]) -> None:
        for system in systems:
            getattr(get_system(system), lookup)(name)

    return check


#: The campaign axes, in ``run_id`` segment order.
AXES: tuple[Axis, ...] = (
    Axis("systems", "system", ("systems",), "all",
         default=_REQUIRED,
         every=lambda: [spec.name for spec in list_systems()],
         rollup="system",
         check=lambda name, systems: get_system(name)),
    Axis("scenarios", "scenario", ("scenarios",), "live",
         words=(("live", None), ("none", None)),
         rollup="scenario",
         check=_in_every_system("scenario"),
         apply=lambda experiment, run: experiment.scenario(run.scenario)),
    Axis("fault_presets", "faults", ("presets", "faults"),
         "partition,chaos",
         default=(), words=(("none", ()),), combo=True,
         every=list_presets,
         rollup="preset",
         check=lambda combo, systems: [resolve_preset(name, 1.0)
                                       for name in combo],
         live_only=(
             "fault presets cannot be combined with scripted scenarios "
             "(scenarios script their own faults); sweep scenarios with "
             "presets=none, or sweep presets over live runs"),
         apply=lambda experiment, run: experiment.faults(
             *run.faults, seed=run.fault_seed,
             start_after=run.fault_start_after)),
    Axis("modes", "mode", ("modes",), "off,steering",
         default="off", coerce=_mode,
         rollup="mode",
         apply=lambda experiment, run: experiment.mode(run.mode)),
    Axis("seeds", "seed", ("seeds",), "0-7",
         default=0, coerce=int, split=_seed_chunk,
         prefix="seed", rollup="seed",
         apply=lambda experiment, run: experiment.seed(run.seed)),
    Axis("properties", "properties", ("properties",),
         "randtree.*,none,default",
         words=(("default", None), ("none", ())), combo=True,
         prefix="props", elide=True, rollup="properties",
         # A typo'd selector fails the whole campaign before any run.
         check=lambda combo, systems: combo and select_properties(*combo),
         live_only=(
             "property selections cannot be combined with scripted "
             "scenarios (scenarios install their own property sets); "
             "sweep properties over live runs"),
         # Patterns resolve against the worker's registry (the bundled
         # property modules self-register on import, so the registry is
         # identical in every worker).
         apply=lambda experiment, run: experiment.properties(
             *run.properties, exclude=run.properties_exclude)),
    Axis("workloads", "workload", ("workloads",), "lookups,none",
         words=(("none", None),),
         prefix="wl", elide=True, rollup="workload", in_aggregate=False,
         check=_in_every_system("workload"),
         live_only=(
             "workloads cannot be combined with scripted scenarios "
             "(scenarios script their own request schedules); sweep "
             "workloads over live runs"),
         apply=lambda experiment, run: experiment.workload(
             run.workload, **dict(run.workload_overrides))),
    Axis("backends", "backend", ("backends",), "sim,tcp",
         default="sim",
         prefix="backend", elide=True, rollup="backend", in_aggregate=False,
         check=lambda name, systems: get_backend(name),
         live_only=(
             "non-sim backends cannot be combined with scripted "
             "scenarios (scenarios build their own runtime); sweep "
             "backends over live runs"),
         apply=lambda experiment, run: experiment.backend(run.backend)),
)

_AXIS_OF_KEY = {key: axis for axis in AXES for key in axis.keys}
_AXIS_OF_CELL = {axis.cell: axis for axis in AXES}

#: ``expand`` nests the product in table order with the seeds innermost, so
#: the repetitions of one configuration are consecutive cells.
_NESTING = tuple(sorted(AXES, key=lambda axis: axis.field == "seeds"))

#: RunSpec fields holding sorted ``(key, value)`` pairs, dicts in JSON.
_PAIR_FIELDS = ("network", "options", "workload_overrides")


def axis_keys() -> str:
    """Every ``--axes`` key with its aliases, for help and error texts."""
    return ", ".join(
        axis.keys[0] + "".join(f" (alias {alias})" for alias in axis.keys[1:])
        for axis in AXES)


def axes_help() -> str:
    """The ``campaign --axes`` help text, one example per axis."""
    examples = ", ".join(f"{axis.keys[0]}={axis.example}" for axis in AXES)
    return (f"axis values, comma-separated (repeatable): {examples}; "
            f"{ALL} expands to every registered system / fault preset and "
            f"combos join with {COMBO_SEPARATOR} (presets=partition+delay)")


@dataclass(frozen=True)
class RunSpec:
    """One cell of the campaign matrix: everything needed to run it.

    ``RunSpec`` is picklable and JSON-round-trippable (``to_dict`` /
    ``from_dict``) so cells can cross process boundaries into pool workers
    and be re-identified in a result store across campaign invocations.
    """

    system: str
    scenario: Optional[str] = None
    mode: str = "off"
    seed: int = 0
    faults: tuple[str, ...] = ()
    fault_seed: Optional[int] = None
    fault_start_after: Optional[float] = None
    #: property-selection patterns; None keeps the system's default set,
    #: an empty tuple checks nothing.
    properties: Optional[tuple[str, ...]] = None
    #: exclusion patterns applied after a non-default selection.
    properties_exclude: tuple[str, ...] = ()
    nodes: Optional[int] = None
    duration: Optional[float] = None
    churn: bool = False
    churn_interval: Optional[float] = None
    #: simple network scalars (rtt/loss/jitter/rst_loss) for live runs.
    network: tuple[tuple[str, float], ...] = ()
    options: tuple[tuple[str, Any], ...] = ()
    #: registered workload name driven through the live run; None = none.
    workload: Optional[str] = None
    #: traffic-shape overrides (rate/burst/keys/...) applied to it.
    workload_overrides: tuple[tuple[str, Any], ...] = ()
    #: execution backend of the cell ("sim" or "tcp"; see repro.backends).
    backend: str = "sim"

    @property
    def run_id(self) -> str:
        """Stable identity of this cell, independent of execution order."""
        segments = (axis.segment(getattr(self, axis.cell)) for axis in AXES)
        return ":".join(segment for segment in segments
                        if segment is not None)

    def to_dict(self) -> dict[str, Any]:
        data: dict[str, Any] = {"run_id": self.run_id}
        for spec_field in dataclasses.fields(self):
            value = getattr(self, spec_field.name)
            if spec_field.name in _PAIR_FIELDS:
                value = dict(value)
            elif isinstance(value, tuple):
                value = list(value)
            data[spec_field.name] = value
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunSpec":
        """Rebuild a cell; keys absent from ``data`` (a record written
        before the field existed) take the field's default."""
        values = {}
        for spec_field in dataclasses.fields(cls):
            raw = data.get(spec_field.name)
            if spec_field.name in _AXIS_OF_CELL:
                value = _AXIS_OF_CELL[spec_field.name].normalize(raw)
            elif spec_field.name in _PAIR_FIELDS:
                value = tuple(sorted((raw or {}).items()))
            elif raw is None:
                value = spec_field.default
            else:
                value = tuple(raw) if isinstance(raw, list) else raw
            values[spec_field.name] = value
        return cls(**values)


@dataclass
class CampaignSpec:
    """Axes and shared settings of one sweep.

    Each axis is a sequence and the cross product is the run matrix; see
    :data:`AXES` (and the README's axis table) for what every axis accepts.
    ``None`` is always the axis's default cell — a live run, no faults,
    the system's default property set, no workload — and the ``systems``
    axis as a whole defaults to every registered system.  Values that
    normalize to the same cell (``None`` and ``"live"``, a repeated seed)
    yield that cell once.  ``properties_exclude`` patterns apply to every
    non-default property selection, ``workload_overrides`` (rate/burst/
    keys/distribution/start/duration) to every workload-driven cell.

    Shared settings: ``nodes``, ``duration`` (scalar, or per-system via
    ``durations``), ``churn`` (off by default so the named faults are the
    only adversary), ``network`` (simple scalars: rtt/loss/jitter/
    rst_loss), ``options``, ``fault_seed``.
    """

    systems: Optional[Sequence[str]] = None
    scenarios: Sequence[Optional[str]] = (None,)
    fault_presets: Sequence[Union[str, Sequence[str], None]] = (None,)
    seeds: Sequence[int] = (0,)
    modes: Sequence[str] = ("off",)
    properties: Sequence[Union[str, Sequence[str], None]] = (None,)
    properties_exclude: Sequence[str] = ()
    workloads: Sequence[Optional[str]] = (None,)
    workload_overrides: Mapping[str, Any] = field(default_factory=dict)
    backends: Sequence[str] = ("sim",)
    nodes: Optional[int] = None
    duration: Optional[float] = None
    durations: Mapping[str, float] = field(default_factory=dict)
    churn: bool = False
    churn_interval: Optional[float] = None
    network: Mapping[str, float] = field(default_factory=dict)
    options: Mapping[str, Any] = field(default_factory=dict)
    fault_seed: Optional[int] = None
    fault_start_after: Optional[float] = None

    def _values(self, axis: Axis) -> list:
        """The axis's canonical cell values, each once, in given order."""
        raw = getattr(self, axis.field)
        if raw is None:
            raw = axis.every()
        return list(dict.fromkeys(axis.normalize(value) for value in raw))

    def axes_dict(self) -> dict[str, Any]:
        """The axes as plain JSON data (for reports and result stores)."""
        return {axis.field: [axis.label(value) for value in self._values(axis)]
                for axis in AXES}

    def _duration_for(self, system: str) -> Optional[float]:
        if system in self.durations:
            return float(self.durations[system])
        return self.duration

    def expand(self) -> list[RunSpec]:
        """Validate every axis value and return the full run matrix.

        Raises ``ValueError`` on an unknown system, scenario, fault preset
        or mode — before any run starts, so a typo fails the whole campaign
        fast instead of 30 runs in.
        """
        values = {axis.field: self._values(axis) for axis in AXES}
        systems = values["systems"]
        for axis in AXES:
            if not values[axis.field]:
                raise ValueError(f"campaign has no {axis.field} to run")
            for value in values[axis.field]:
                if axis.check is None or value == axis.default:
                    continue
                try:
                    axis.check(value, systems)
                except KeyError as exc:
                    raise ValueError(exc.args[0]) from None

        swept = {axis.field for axis in AXES
                 if any(value != axis.default for value in values[axis.field])}
        # A live scenario is a preset of the live path and takes every
        # axis; a search has no deployment to apply them to.
        scripted = any(scenario_kind(system, name) != "live"
                       for name in values["scenarios"] for system in systems)
        for axis in AXES:
            if scripted and axis.live_only and axis.field in swept:
                raise ValueError(axis.live_only)

        if ATTACK_MODE in values["modes"]:
            # Attack cells are whole falsification pipelines (many seeded
            # re-executions), not single live runs — refuse every axis the
            # pipeline would silently ignore, exactly like the scenario
            # refusals above.
            if "scenarios" in swept:
                raise ValueError(
                    "attack mode cannot be combined with scripted "
                    "scenarios; hunt counterexamples over live cells"
                )
            if "backends" in swept:
                raise ValueError(
                    "attack mode requires the sim backend (the "
                    "falsification search re-executes seeded simulator "
                    "runs bit-reproducibly)"
                )
            if "workloads" in swept:
                raise ValueError(
                    "attack mode cannot be combined with workloads; "
                    "attack cells drive only the system's own traffic"
                )
            if not all(values["fault_presets"]):
                raise ValueError(
                    "attack mode needs a fault-preset axis on every cell "
                    "(the attack schedule is concretized from the cell's "
                    "presets); set faults=byzantine, faults=equivocation, "
                    "..."
                )
            for selection in values["properties"]:
                if (len(selection or ()) != 1
                        or len(select_properties(*selection)) != 1):
                    raise ValueError(
                        "attack mode falsifies one named property per "
                        "cell; set properties=<property-id> (exactly one "
                        "id, no globs or combos)"
                    )

        _reject_unknown("workload override(s)", self.workload_overrides,
                        {"rate", "burst", "keys", "distribution", "start",
                         "duration"})
        _reject_unknown("network setting(s)", self.network,
                        {"rtt", "loss", "jitter", "rst_loss"})

        # Durations may name any registered system (a narrowed campaign can
        # reuse the full matrix's duration table) — but a typo'd name that
        # matches nothing registered would silently fall back to defaults.
        registered = {spec.name for spec in list_systems()} | set(systems)
        unknown_durations = set(self.durations) - registered
        if unknown_durations:
            raise ValueError(
                f"per-system duration(s) for unknown system(s) "
                f"{sorted(unknown_durations)} (registered systems: "
                f"{', '.join(sorted(registered))})"
            )

        shared = dict(
            fault_seed=self.fault_seed,
            fault_start_after=self.fault_start_after,
            nodes=self.nodes,
            churn=self.churn,
            churn_interval=self.churn_interval,
            network=tuple(sorted(self.network.items())),
            options=tuple(sorted(self.options.items())),
        )
        exclude = tuple(self.properties_exclude)
        overrides = tuple(sorted(self.workload_overrides.items()))
        cells = [axis.cell for axis in _NESTING]
        runs = []
        for combination in itertools.product(
                *(values[axis.field] for axis in _NESTING)):
            cell = dict(zip(cells, combination))
            runs.append(RunSpec(
                **cell, **shared,
                duration=self._duration_for(cell["system"]),
                properties_exclude=(
                    exclude if cell["properties"] is not None else ()),
                workload_overrides=(
                    overrides if cell["workload"] is not None else ()),
            ))
        return runs


def _reject_unknown(what: str, given: Mapping[str, Any],
                    accepted: set[str]) -> None:
    unknown = set(given) - accepted
    if unknown:
        raise ValueError(f"unknown {what} {sorted(unknown)} "
                         f"(accepted: {sorted(accepted)})")


def parse_axes(pairs: Mapping[str, str]) -> dict[str, Any]:
    """Turn CLI ``--axes key=values`` pairs into CampaignSpec axis kwargs.

    Keys are the ``keys`` of :data:`AXES`; values are comma-separated.
    ``all`` expands to every registered system / fault preset; each axis's
    keywords (``none``, ``live``, ``default``) and ``+`` combos are
    interpreted by its row's ``normalize``.
    """
    kwargs: dict[str, Any] = {}
    for key, raw in pairs.items():
        tokens = [token for token in raw.split(",") if token]
        if not tokens:
            raise ValueError(f"axis {key!r} has no values")
        axis = _AXIS_OF_KEY.get(key)
        if axis is None:
            raise ValueError(
                f"unknown campaign axis {key!r} (axes: {axis_keys()})")
        kwargs[axis.field] = axis.parse(tokens)
    return kwargs
