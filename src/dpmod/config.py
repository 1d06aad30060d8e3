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

from dataclasses import dataclass, field

from .errors import ParseError
from .families import FAMILY_READS
from .util import config_hash

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

    def _line(self, key):
        return self.values[key][1]

    def _fail(self, key, msg):
        raise ParseError(f"config key {key!r}: {msg}", path=self.path,
                         line=self._line(key) if key in self.values else None)

    def get_str(self, key, default=None):
        return self._raw(key) if key in self.values else default

    def get_int(self, key, default=None):
        if key not in self.values:
            return default
        try:
            return int(self._raw(key))
        except ValueError:
            self._fail(key, f"expected an integer, got {self._raw(key)!r}")

    def get_float(self, key, default=None):
        if key not in self.values:
            return default
        try:
            return float(self._raw(key))
        except ValueError:
            self._fail(key, f"expected a number, got {self._raw(key)!r}")

    def get_bool(self, key, default=False):
        if key not in self.values:
            return default
        raw = self._raw(key).lower()
        if raw in ("true", "yes", "1"):
            return True
        if raw in ("false", "no", "0"):
            return False
        self._fail(key, f"expected true/false, got {self._raw(key)!r}")

    def get_float_list(self, key, default=None):
        if key not in self.values:
            return default
        try:
            return [float(tok) for tok in self._raw(key).split(",") if tok.strip()]
        except ValueError:
            self._fail(key, f"expected comma-separated numbers, got {self._raw(key)!r}")

    def get_int_list(self, key, default=None):
        """Comma list of integers; 'a..b' expands to the inclusive range."""
        if key not in self.values:
            return default
        out = []
        for tok in self._raw(key).split(","):
            tok = tok.strip()
            if not tok:
                continue
            try:
                if ".." in tok:
                    a, b = tok.split("..")
                    a, b = int(a), int(b)
                    if b < a:
                        self._fail(key, f"empty range {tok!r}")
                    out.extend(range(a, b + 1))
                else:
                    out.append(int(tok))
            except ValueError:
                self._fail(key, f"expected integers or a..b ranges, got {tok!r}")
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
