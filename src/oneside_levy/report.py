"""Machine-readable comparison reports and the CSV conventions.

Every experiment emits one JSON report listing named metric comparisons with
their tolerances and pass flags, plus the parameter echo and RNG seed needed
to reproduce it.  CSV files carry a header row and floats at 17 significant
digits so values round-trip bit-faithfully.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional

from .config import SCHEMA_VERSION


def fmt17(x) -> str:
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def write_csv(path, header, rows) -> None:
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(fmt17(v) for v in row))
    p.write_text("\n".join(lines) + "\n")


@dataclass
class Metric:
    name: str
    value_a: float
    value_b: float
    abs_err: float
    rel_err: Optional[float]  # None against an expected value of 0
    tolerance: float
    kind: str               # which error the tolerance binds: "abs" or "rel"
    passed: bool


@dataclass
class ComparisonReport:
    experiment: str
    params: dict
    seed: int
    metrics: List[Metric] = field(default_factory=list)
    started: float = field(default_factory=time.time)

    def add(self, name: str, value_a: float, value_b: float,
            tolerance: float, kind: str = "abs") -> bool:
        """Record |value_a - value_b| and gate the error that kind names.

        Against an expected 0 the relative error is undefined: rel_err is
        stored as None (JSON null) and kind="rel" raises ValueError.
        """
        abs_err = abs(float(value_a) - float(value_b))
        rel_err = abs_err / abs(float(value_b)) if value_b != 0.0 else None
        if kind == "rel" and rel_err is None:
            raise ValueError(f"{name}: relative error against an expected 0")
        err = abs_err if kind == "abs" else rel_err
        ok = bool(err <= tolerance)
        self.metrics.append(Metric(name, float(value_a), float(value_b),
                                   abs_err, rel_err, float(tolerance), kind, ok))
        return ok

    def add_flag(self, name: str, ok: bool) -> bool:
        self.metrics.append(Metric(name, float(bool(ok)), 1.0,
                                   0.0 if ok else 1.0, 0.0 if ok else 1.0,
                                   0.0, "abs", bool(ok)))
        return ok

    @property
    def all_pass(self) -> bool:
        return all(m.passed for m in self.metrics)

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "experiment": self.experiment,
            "params": self.params,
            "seed": self.seed,
            "metrics": [vars(m) for m in self.metrics],
            "all_pass": self.all_pass,
            "wall_clock_s": round(time.time() - self.started, 3),
        }

    def write(self, path) -> None:
        p = Path(path)
        p.parent.mkdir(parents=True, exist_ok=True)
        p.write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n")
