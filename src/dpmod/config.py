"""Flat key = value experiment configs.

Grammar: one ``key = value`` per line, ``#`` starts a comment, blank lines
ignored.  Unknown keys, and keys the run would not read (``check_reads``),
fail with the offending line number.  The README documents every key.

The config hash echoed into CSV rows covers the *effective* inputs: the
config text (minus ``out``, which only moves files) plus the effective seed
after CLI overrides.  Identical config + seed therefore means identical hash
and, by construction of the runners, byte-identical outputs.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from .errors import ParseError
from .families import FAMILY_READS

# the keys each kind reads besides kind, out and seed; ``check_reads`` narrows them
_FILES = ("mesh", "metric", "metric0")
_FAMILY = ("family", "n", "resolution", "torus", "conformal_c", "amplitude", "radius",
           "center", "profile", "scale")
KEYS = {
    "gen": (*_FAMILY, "j", "j_list"),
    "compute": (*_FILES, *_FAMILY, "j", "p", "D", "pairs"),
    "sweep-p": (*_FILES, *_FAMILY, "j", "p_list", "D", "pairs"),
    "sequence": (*_FAMILY, "j_list", "p", "D", "pairs", "allow_low_p"),
    "scaling": (*_FILES, *_FAMILY, "j", "p", "D", "pairs", "lambda_list"),
    "class-check": (*_FILES, *_FAMILY, "j", "q1", "q2", "V1", "V2", "diam_bound"),
}
KINDS = tuple(KEYS)
_KNOWN_KEYS = {"kind", "out", "seed"}.union(*KEYS.values())
_VALUES = set().union(*FAMILY_READS.values())


_BOOLS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


def config_hash(text):
    """Short stable hash of a config file's canonicalized text."""
    lines = (ln.strip() for ln in text.splitlines() if ln.split("#", 1)[0].strip())
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:12]


def _float_list(raw):
    return [float(tok) for tok in raw.split(",") if tok.strip()]


@dataclass
class ExperimentConfig:
    """Parsed config plus effective seed/output overrides."""

    path: str
    text: str
    values: dict = field(default_factory=dict)   # key -> (value str, line no)
    seed: int = 0
    out: str = "."

    def __contains__(self, key):
        return key in self.values

    def _raw(self, key):
        return self.values[key][0]

    def _fail(self, key, msg):
        raise ParseError(f"config key {key!r}: {msg}", path=self.path,
                         line=self.values[key][1] if key in self.values else None)

    def _parse(self, key, default, parse=str, expected=None):
        """``parse`` of the key's value, or ``default`` when the key is absent.

        The one value parser: a value ``parse`` rejects fails the key with
        "expected <expected>, got <value>".
        """
        if key not in self.values:
            return default
        try:
            return parse(self._raw(key))
        except (KeyError, ValueError):
            self._fail(key, f"expected {expected}, got {self._raw(key)!r}")

    def get_str(self, key, default=None):
        return self._parse(key, default)

    def get_int(self, key, default=None):
        return self._parse(key, default, int, "an integer")

    def get_float(self, key, default=None):
        return self._parse(key, default, float, "a number")

    def get_bool(self, key, default=False):
        return self._parse(key, default, lambda raw: _BOOLS[raw.lower()], "true/false")

    def get_float_list(self, key, default=None):
        return self._parse(key, default, _float_list, "comma-separated numbers")

    def get_int_list(self, key, default=None):
        """Comma list of integers; 'a..b' expands to the inclusive range."""
        if key not in self.values:
            return default
        out = []
        for tok in filter(None, (tok.strip() for tok in self._raw(key).split(","))):
            try:
                a, b = map(int, tok.split("..")) if ".." in tok else (int(tok),) * 2
            except ValueError:
                self._fail(key, f"expected integers or a..b ranges, got {tok!r}")
            if b < a:
                self._fail(key, f"empty range {tok!r}")
            out.extend(range(a, b + 1))
        return out

    def check_reads(self, kind):
        """Fail on the first key, in line order, that a ``kind`` run does not read."""
        family = self.get_str("family")
        clash = _FILES if family is not None else (*_FAMILY, "j")
        # unknown families are left to the runner; gen reads j_list as j, j only without it
        skip = _VALUES.difference(FAMILY_READS.get(family, _VALUES))
        for key in self.values:
            if key in clash and any(file in self for file in _FILES):
                self._fail(key, "give either mesh/metric files or a family, not both")
            value = "conformal" if key == "conformal_c" else \
                "j" if key == "j_list" and kind == "gen" else key
            if key not in ("kind", "out", "seed", *KEYS[kind]) or value in skip or \
                    kind == "gen" and key == "j" and "j_list" in self:
                self._fail(key, f"is not read by this {kind} run")

    def hash(self):
        lines = [
            ln for ln in self.text.splitlines()
            if not ln.split("=")[0].strip() in ("out", "seed")
        ]
        lines.append(f"seed = {self.seed}")
        return config_hash("\n".join(lines))


def parse_config(path, seed=None, out=None):
    """Read a config file; CLI --seed/--out override the file's values."""
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read config: {exc.strerror}", path=str(path)) from exc
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"expected 'key = value', got {line!r}",
                             path=str(path), line=lineno)
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in _KNOWN_KEYS:
            raise ParseError(f"unknown config key {key!r}", path=str(path), line=lineno)
        if key in values:
            raise ParseError(f"duplicate config key {key!r}", path=str(path), line=lineno)
        values[key] = (val, lineno)
    cfg = ExperimentConfig(path=str(path), text=text, values=values)
    cfg.seed = seed if seed is not None else cfg.get_int("seed", 0)
    if cfg.seed < 0:
        cfg._fail("seed", "must be a non-negative integer")
    cfg.out = out if out is not None else cfg.get_str("out", ".")
    kind = cfg.get_str("kind")
    if kind is not None and kind not in KINDS:
        cfg._fail("kind", f"must be one of {', '.join(KINDS)}")
    return cfg
