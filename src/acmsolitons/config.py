"""Run configuration: INI-style definition files and built-in fixtures.

A definition file has sections

    [manifold]    name, coordinates, constraints, metric entries g_<i>_<j>
    [structure]   phi_<i>_<j> entries, xi components, optional eta components
    [scalars]     named scalar fields
    [vectors]     named vector fields
    [candidates]  name = kind, potential, lambda
    [run]         seed, points, a grid, sampling box, suites

The text is read in one pass by ``_sections``.  A ``[name]`` line opens a
section, and each other line is ``key = value``, split at its first ``=``
with both sides stripped.  A ``#`` at the start of a line or after
whitespace starts a comment (``x#y`` is not one).  A line indented deeper
than its option's line continues the value on a new line.  A line before
any section, a repeated section or key, a line without ``=``, an empty key
and a ``[DEFAULT]`` section are refused with their line number.

Values are expressions over the declared coordinates.  Omitted metric or
phi entries are zero, eta defaults to the metric dual of xi, and candidate
potentials are written ``reeb``, ``grad <scalar>`` or ``vector <vector>``.
Every scalar, vector component and candidate lambda may reference the
reserved symbol ``a``, the deformation parameter of the frame it is
evaluated in (1 in the base one).
The built-in fixtures are such files, ``fixtures/<name>.ini`` in the package.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from pathlib import Path

from .expr import ParseError, a_tag, parse_expr
from .geometry import AcmStructure, ChartManifold, ScalarField, VectorField
from .solitons import SolitonCandidate
from .tensor import StructureError

__all__ = [
    "ALL_SUITES",
    "ConfigError",
    "VerificationConfig",
    "load_config",
    "load_config_text",
    "builtin_config",
    "builtin_names",
    "set_run_setting",
]

ALL_SUITES = (
    "acm-axioms",
    "kenmotsu",
    "section2-identities",
    "prop22-norms",
    "remark23",
    "riemann-solitons",
    "ricci-solitons",
    "inequalities",
)

DEFAULT_A_GRID = (0.5, 1.0, 2.0, 3.7)

# names with fixed meaning inside expressions
_RESERVED = ("a", "pi", "e")
_NAME_RE = re.compile(r"^[A-Za-z][A-Za-z0-9]*$")
# the soliton suites' keys <key>/<vector>: a candidate's checks are
# <candidate>/<residual>, so a candidate named <key> beside a vector named
# full, traced or scalar would give two checks one id
_SUITE_KEYS = ("solenoidal-trace",)


class ConfigError(StructureError):
    """A definition file failed to parse or validate."""


@dataclass
class VerificationConfig:
    name: str
    manifold: ChartManifold
    structure: AcmStructure | None
    scalars: dict
    vectors: dict
    candidates: list
    seed: int = 42
    points: int = 64
    a_grid: tuple = DEFAULT_A_GRID
    box: dict = field(default_factory=dict)
    suites: tuple = ALL_SUITES
    scalar_name: str | None = None

    @property
    def scalar(self) -> ScalarField | None:
        if self.scalar_name is None:
            return None
        return self.scalars[self.scalar_name]


def load_config(path) -> VerificationConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}") from err
    return load_config_text(text, source=str(path))


def _split_top(text: str) -> list:
    """Split on commas at parenthesis depth zero."""
    parts = []
    depth = 0
    current = []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(current).strip())
            current = []
        else:
            current.append(ch)
    parts.append("".join(current).strip())
    return parts


def _parse(text: str, coords, source: str, where: str):
    try:
        return parse_expr(text, coords=coords)
    except ParseError as err:
        raise ConfigError(f"{source}: {where}: {err}") from err


def _components(text: str, what: str, label: str, symbols, dim: int,
                source: str) -> tuple:
    """The ``dim`` comma-separated expressions of ``text``: xi, eta or a
    vector, named ``what`` in a count error and ``label`` in a parse one."""
    parts = _split_top(text)
    if len(parts) != dim:
        raise ConfigError(
            f"{source}: {what} needs {dim} components, got {len(parts)}"
        )
    return tuple(_parse(t, symbols, source, f"{label} component {k}")
                 for k, t in enumerate(parts))


def _matrix_entries(items, prefix: str, what: str, section: str,
                    expected: str, coords, source: str) -> dict:
    """(i, j) -> expression of each entry ``<prefix>_<coord>_<coord>`` of
    a section, in order: the metric's or phi's."""
    entries = {}
    for key, value in items:
        parts = key.split("_")
        if len(parts) != 3 or parts[0] != prefix:
            raise ConfigError(
                f"{source}: unknown [{section}] entry {key!r} "
                f"(expected {expected})"
            )
        if parts[1] not in coords or parts[2] not in coords:
            raise ConfigError(
                f"{source}: {what} entry {key!r} names an unknown coordinate"
            )
        entries[coords.index(parts[1]), coords.index(parts[2])] = _parse(
            value, coords, source, f"{what} entry {key}")
    return entries


def _check_name(name: str, source: str, what: str) -> None:
    if not _NAME_RE.match(name):
        raise ConfigError(
            f"{source}: {what} {name!r} must be a plain identifier "
            f"(letters and digits, no underscore)"
        )
    if name in _RESERVED:
        raise ConfigError(
            f"{source}: {what} {name!r} is reserved ({', '.join(_RESERVED)})"
        )


def set_run_setting(config: VerificationConfig, key: str, raw: str,
                    where: str) -> None:
    """Parse the run setting ``key`` from the text ``raw`` into ``config``.

    ``key`` is seed, points, a or suites; a [run] section and the command
    line both set them here, and an error names ``where``.  A grid is
    refused with a value that is not positive and finite, or with two
    values whose check tags [a=...] coincide; a suite list when it is
    empty, names an unknown suite or names one twice (either would give two
    checks one id).
    """
    if key in ("seed", "points"):
        try:
            value = int(raw)
        except ValueError as err:
            raise ConfigError(f"{where} must be an integer") from err
        if key == "seed" and value < 0:
            raise ConfigError(f"{where} must be non-negative")
        if key == "points" and value <= 0:
            raise ConfigError(f"{where} must be positive")
        setattr(config, key, value)
    elif key == "a":
        try:
            grid = tuple(float(t) for t in raw.split(","))
        except ValueError as err:
            raise ConfigError(
                f"{where} must be a comma-separated list of numbers"
            ) from err
        seen = {}
        for value in grid:
            if not math.isfinite(value) or value <= 0.0:
                raise ConfigError(
                    f"{where}: deformation parameter must be positive and "
                    f"finite, got {value:g}"
                )
            tag = a_tag(value)
            if tag in seen:
                raise ConfigError(
                    f"{where}: deformation parameters {seen[tag]!r} and "
                    f"{value!r} share the check tag {tag}"
                )
            seen[tag] = value
        config.a_grid = grid
    elif key == "suites":
        suites = tuple(t.strip() for t in raw.split(",") if t.strip())
        if not suites:
            raise ConfigError(f"{where}: must name at least one suite")
        for i, name in enumerate(suites):
            if name not in ALL_SUITES:
                raise ConfigError(
                    f"{where}: unknown suite {name!r}; valid suites: "
                    f"{', '.join(ALL_SUITES)}"
                )
            if name in suites[:i]:
                raise ConfigError(f"{where}: suite {name!r} is named twice")
        config.suites = suites


def _parse_error(source: str, number: int, what: str) -> ConfigError:
    return ConfigError(f"config parse error: {source} line {number}: {what}")


def _sections(text: str, source: str) -> dict:
    """{section: {key: value}} of a definition file, in file order.

    The sections, keys and values are those of ``configparser`` with
    ``#`` comments, ``=`` alone as delimiter, no interpolation and keys
    kept as written, and it refuses ``[DEFAULT]`` too.  A line indented
    deeper than the line of its option continues the option; its value is
    the lines joined by newlines, blank ones kept, then right-stripped.
    """
    sections = {}
    options = None  # the dict of the open section
    lines = None  # the value lines of the option a deeper line continues
    indent = 0  # the indent of the last section or option line
    for number, line in enumerate(text.split("\n"), 1):
        cut = line.find("#")
        while cut > 0 and not line[cut - 1].isspace():
            cut = line.find("#", cut + 1)
        body = (line if cut < 0 else line[:cut]).strip()
        if not body:
            if cut < 0 and lines is not None:
                lines.append("")
            continue
        depth = len(line) - len(line.lstrip())
        if lines is not None and depth > indent:
            lines.append(body)
            continue
        indent = depth
        end = body.rfind("]")
        if body[0] == "[" and end > 1:
            name = body[1:end]
            if name == "DEFAULT":
                raise _parse_error(source, number, "no [DEFAULT] section")
            if name in sections:
                raise _parse_error(source, number, f"repeated section [{name}]")
            options = sections[name] = {}
            lines = None
            continue
        if options is None:
            raise _parse_error(source, number, "no section header before it")
        key, eq, value = body.partition("=")
        key = key.rstrip()
        if not eq:
            raise _parse_error(source, number, f"{body!r} is not 'key = value'")
        if not key:
            raise _parse_error(source, number, "empty key")
        if key in options:
            raise _parse_error(source, number, f"repeated key {key!r}")
        lines = options[key] = [value.lstrip()]
    return {
        name: {key: "\n".join(value).rstrip() for key, value in options.items()}
        for name, options in sections.items()
    }


def load_config_text(text: str, source: str = "<config>") -> VerificationConfig:
    sections = _sections(text, source)
    if "manifold" not in sections:
        raise ConfigError(f"{source}: missing [manifold] section")
    man_sec = sections["manifold"]
    name = man_sec.pop("name", source)
    coords_text = man_sec.pop("coordinates", None)
    if coords_text is None:
        raise ConfigError(f"{source}: [manifold] needs a 'coordinates' entry")
    coords = tuple(c.strip() for c in coords_text.split(","))
    if len(set(coords)) != len(coords):
        raise ConfigError(f"{source}: duplicate coordinate names")
    for c in coords:
        _check_name(c, source, "coordinate")
    dim = len(coords)

    constraints = []
    constraints_text = man_sec.pop("constraints", "")
    for part in constraints_text.split(";"):
        part = part.strip()
        if part:
            constraints.append(_parse(part, coords, source, "constraint"))

    zero = _parse("0", coords, source, "metric zero")
    metric = [[zero] * dim for _ in range(dim)]
    for (i, j), entry in _matrix_entries(
        man_sec.items(), "g", "metric", "manifold", "g_<coord>_<coord>",
        coords, source,
    ).items():
        metric[i][j] = metric[j][i] = entry

    try:
        manifold = ChartManifold(coords, metric, tuple(constraints), name=name)
    except StructureError as err:
        raise ConfigError(f"{source}: {err}") from err

    structure = None
    if "structure" in sections:
        sec = sections["structure"]
        xi_text = sec.pop("xi", None)
        if xi_text is None:
            raise ConfigError(f"{source}: [structure] needs an 'xi' entry")
        xi = _components(xi_text, "xi", "xi", coords, dim, source)
        eta_text = sec.pop("eta", None)
        eta = None if eta_text is None else _components(
            eta_text, "eta", "eta", coords, dim, source)
        phi = [[zero] * dim for _ in range(dim)]
        for (i, j), entry in _matrix_entries(
            sec.items(), "phi", "phi", "structure",
            "phi_<coord>_<coord>, xi or eta", coords, source,
        ).items():
            phi[i][j] = entry
        try:
            structure = AcmStructure(manifold, phi, xi, eta=eta)
        except StructureError as err:
            raise ConfigError(f"{source}: {err}") from err

    symbols = coords + ("a",)  # what a field or a lambda may read
    scalars = {}
    if "scalars" in sections:
        for key, value in sections["scalars"].items():
            _check_name(key, source, "scalar name")
            if key in coords:
                raise ConfigError(
                    f"{source}: scalar {key!r} collides with a coordinate"
                )
            scalars[key] = ScalarField(_parse(value, symbols, source, f"scalar {key}"))

    vectors = {}
    if "vectors" in sections:
        for key, value in sections["vectors"].items():
            _check_name(key, source, "vector name")
            if key in coords or key in scalars:
                raise ConfigError(
                    f"{source}: vector {key!r} collides with another name"
                )
            vectors[key] = VectorField(_components(
                value, f"vector {key!r}", f"vector {key}", symbols, dim, source))

    candidates = []
    # potential word -> (what it names, the named fields)
    potentials = {"grad": ("scalar", scalars), "vector": ("vector", vectors)}
    if "candidates" in sections:
        if structure is None:
            raise ConfigError(
                f"{source}: [candidates] needs a [structure] section"
            )
        if dim < 3:
            raise ConfigError(
                f"{source}: soliton candidates need dimension >= 3"
            )
        for key, value in sections["candidates"].items():
            _check_name(key.replace("-", ""), source, "candidate name")
            if key in _SUITE_KEYS:
                raise ConfigError(
                    f"{source}: candidate {key!r} is named like a key of the "
                    f"soliton suites, so its check ids could repeat theirs"
                )
            parts = _split_top(value)
            if len(parts) != 3:
                raise ConfigError(
                    f"{source}: candidate {key!r} must be "
                    f"'kind, potential, lambda-expression'"
                )
            kind = parts[0].strip()
            pot = parts[1].split()
            lam = _parse(parts[2], symbols, source, f"candidate {key} lambda")
            if len(pot) == 2 and pot[0] in potentials:
                what, named = potentials[pot[0]]
                if pot[1] not in named:
                    raise ConfigError(
                        f"{source}: candidate {key!r} references unknown "
                        f"{what} {pot[1]!r}"
                    )
                potential = named[pot[1]]
            elif pot == ["reeb"]:
                potential = None
            else:
                raise ConfigError(
                    f"{source}: candidate {key!r} potential must be 'reeb', "
                    f"'grad <scalar>' or 'vector <vector>'"
                )
            try:
                cand = SolitonCandidate(key, kind, potential, ScalarField(lam))
            except StructureError as err:
                raise ConfigError(f"{source}: candidate {key!r}: {err}") from err
            candidates.append(cand)

    config = VerificationConfig(
        name=name,
        manifold=manifold,
        structure=structure,
        scalars=scalars,
        vectors=vectors,
        candidates=candidates,
    )
    run = sections.get("run", {})
    for key in ("seed", "points", "a", "suites"):
        if key in run:
            set_run_setting(config, key, run.pop(key), f"{source}: [run] {key}")

    scalar_name = run.pop("scalar", None)
    if scalar_name is None and "f" in scalars:
        scalar_name = "f"
    if scalar_name is not None and scalar_name not in scalars:
        raise ConfigError(
            f"{source}: [run] scalar references unknown scalar {scalar_name!r}"
        )
    config.scalar_name = scalar_name

    for c in coords:
        raw = run.pop(f"box_{c}", None)
        if raw is None:
            config.box[c] = (-1.0, 1.0)
            continue
        try:
            lo, hi = (float(t) for t in raw.split(","))
        except ValueError as err:
            raise ConfigError(
                f"{source}: [run] box_{c} must be 'low, high'"
            ) from err
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ConfigError(f"{source}: [run] box_{c} must be finite")
        if not lo < hi:
            raise ConfigError(f"{source}: [run] box_{c} must have low < high")
        config.box[c] = (lo, hi)

    if run:
        raise ConfigError(
            f"{source}: unknown [run] entries: {', '.join(sorted(run))}"
        )
    return config


# ---------------------------------------------------------------------------
# Built-in fixtures

# one definition file per fixture, named after it, shipped with the package
_BUILTINS = {
    path.stem: path.read_text(encoding="utf-8")
    for path in sorted((Path(__file__).parent / "fixtures").glob("*.ini"))
}


def builtin_names() -> tuple:
    return tuple(sorted(_BUILTINS))


def builtin_config(name: str) -> VerificationConfig:
    text = _BUILTINS.get(name)
    if text is None:
        raise ConfigError(
            f"unknown built-in fixture {name!r}; available: "
            f"{', '.join(builtin_names())}"
        )
    return load_config_text(text, source=f"builtin:{name}")
