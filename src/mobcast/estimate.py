"""Parameter recovery from simulated panels.

Three estimators, all dependency-free:

* one-factor scores for the latent affect (power iteration on the item
  covariance),
* ordinary least squares for the affect formation coefficients,
* logistic maximum likelihood (IRLS with step halving) for activation
  and for per-edge transmission.

Two modes are supported downstream: oracle (the simulator's true affect
is used as the regressor) and measurement (affect replaced by factor
scores; attenuation toward zero is expected and documented in tests).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .affect import Design, measure_items
from .artifacts import write_csv
from .design import _rep_engines, _replications, scenario_graph
from .graph import identity_similarity
from .scenario import Scenario
from .stats import normal_sf

__all__ = [
    "EstimateError",
    "FitResult",
    "PanelData",
    "solve_linear",
    "invert_spd",
    "factor_scores",
    "affect_design_matrix",
    "fit_affect_ols",
    "fit_logistic",
    "implied_affect_coefficients",
    "build_panel",
    "activation_matrix",
    "edge_matrix",
    "fit_activation",
    "fit_edge_transmission",
    "wald_p_value",
    "write_panel_csv",
    "read_panel_csv",
]

AFFECT_TERMS = ("intercept", "exposure", "matching", "context",
                "exposure_x_matching", "exposure_x_context")


class EstimateError(ValueError):
    pass


@dataclass(frozen=True)
class FitResult:
    estimates: tuple[float, ...]
    standard_errors: tuple[float, ...]
    names: tuple[str, ...]
    converged: bool
    iterations: int
    n_obs: int
    log_likelihood: float | None = None
    residual_variance: float | None = None

    def coefficient(self, name: str) -> tuple[float, float]:
        i = self.names.index(name)
        return self.estimates[i], self.standard_errors[i]


@dataclass
class PanelData:
    """Stacked simulation output ready for fitting.

    Agent rows carry one entry per (arm, rep, agent); edge rows carry one
    entry per attempted transmission.
    """

    arm: np.ndarray
    rep: np.ndarray
    agent: np.ndarray
    items: np.ndarray          # (rows, K)
    exposure: np.ndarray
    affect: np.ndarray         # true latent value (oracle mode)
    matching: np.ndarray
    context: np.ndarray
    decision: np.ndarray
    influence: np.ndarray
    edge_arm: np.ndarray
    edge_rep: np.ndarray
    sender: np.ndarray
    target: np.ndarray
    sender_affect: np.ndarray
    similarity: np.ndarray
    meme: np.ndarray
    same_block: np.ndarray
    success: np.ndarray
    designs: tuple[Design, ...] = field(default=())

    def n_agent_rows(self) -> int:
        return self.agent.shape[0]

    def n_edge_rows(self) -> int:
        return self.sender.shape[0]


# The panel's CSV schema: (PanelData field, CSV column, format) for each
# column of panel_agents.csv and of panel_edges.csv. %d columns hold
# int64 arrays and %.17g columns float64 ones; "items", the one 2-D
# field, spans the columns y1..yK.
_AGENT_COLUMNS = (
    ("arm", "arm", "%d"), ("rep", "rep", "%d"), ("agent", "agent", "%d"),
    ("items", "y", "%.17g"), ("exposure", "exposure", "%d"),
    ("affect", "affect", "%.17g"), ("matching", "matching", "%.17g"),
    ("context", "context", "%.17g"), ("decision", "decision", "%d"),
    ("influence", "influence", "%d"))
_EDGE_COLUMNS = (
    ("edge_arm", "arm", "%d"), ("edge_rep", "rep", "%d"),
    ("sender", "sender", "%d"), ("target", "target", "%d"),
    ("sender_affect", "sender_affect", "%.17g"),
    ("similarity", "similarity", "%.17g"), ("meme", "meme", "%d"),
    ("same_block", "same_block", "%d"), ("success", "success", "%d"))
_PANEL_COLUMNS = _AGENT_COLUMNS + _EDGE_COLUMNS


def solve_linear(a: np.ndarray, b: np.ndarray,
                 pivot_tol: float = 1e-12) -> np.ndarray:
    """Gaussian elimination with partial pivoting; explicit error when a
    pivot falls below pivot_tol (rank deficiency / collinearity)."""
    a = np.array(a, dtype=float)
    b = np.array(b, dtype=float)
    n = a.shape[0]
    if a.shape != (n, n):
        raise EstimateError("solve_linear needs a square matrix")
    single = b.ndim == 1
    if single:
        b = b[:, None]
    for col in range(n):
        pivot_row = col + int(np.argmax(np.abs(a[col:, col])))
        pivot = a[pivot_row, col]
        if abs(pivot) < pivot_tol:
            raise EstimateError(
                f"collinear system: pivot {abs(pivot):.3e} below "
                f"{pivot_tol:g} at column {col}")
        if pivot_row != col:
            a[[col, pivot_row]] = a[[pivot_row, col]]
            b[[col, pivot_row]] = b[[pivot_row, col]]
        factors = a[col + 1:, col] / pivot
        a[col + 1:, col:] -= factors[:, None] * a[col, col:]
        b[col + 1:] -= factors[:, None] * b[col]
    x = np.zeros_like(b)
    for row in range(n - 1, -1, -1):
        x[row] = (b[row] - a[row, row + 1:] @ x[row + 1:]) / a[row, row]
    return x[:, 0] if single else x


def invert_spd(a: np.ndarray, pivot_tol: float = 1e-12) -> np.ndarray:
    return solve_linear(a, np.eye(a.shape[0]), pivot_tol=pivot_tol)


def factor_scores(items: np.ndarray, tol: float = 1e-10,
                  max_iter: int = 1000) -> tuple[np.ndarray, np.ndarray, bool, int]:
    """One-factor principal-axis scores.

    Returns (scores, loadings, converged, iterations). Items are centered,
    the leading eigenvector of their covariance found by power iteration,
    and the sign fixed so the mean loading is positive.
    """
    items = np.asarray(items, dtype=float)
    if items.ndim != 2 or items.shape[1] < 2:
        raise EstimateError("need a matrix with at least 2 item columns")
    n, k = items.shape
    if n < k:
        raise EstimateError("need at least as many rows as items")
    centered = items - items.mean(axis=0)
    variances = (centered ** 2).sum(axis=0) / (n - 1)
    if np.any(variances < 1e-12):
        dead = int(np.argmin(variances))
        raise EstimateError(f"degenerate data: item {dead} has zero variance")
    cov = centered.T @ centered / (n - 1)

    v = np.full(k, 1.0 / np.sqrt(k))
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        w = cov @ v
        norm = np.linalg.norm(w)
        if norm == 0.0:
            raise EstimateError("degenerate data: covariance annihilates start")
        w = w / norm
        if w @ v < 0:
            w = -w
        if np.max(np.abs(w - v)) < tol:
            v = w
            converged = True
            break
        v = w
    eigenvalue = float(v @ cov @ v)
    if v.mean() < 0:
        v = -v
    loadings = v * np.sqrt(max(eigenvalue, 0.0))
    scores = centered @ v
    return scores, loadings, converged, iterations


def affect_design_matrix(exposure: np.ndarray, matching: np.ndarray,
                         context: np.ndarray) -> np.ndarray:
    e = np.asarray(exposure, dtype=float)
    m = np.asarray(matching, dtype=float)
    c = np.asarray(context, dtype=float)
    return np.column_stack([np.ones_like(e), e, m, c, e * m, e * c])


def fit_affect_ols(affect: np.ndarray, exposure: np.ndarray,
                   matching: np.ndarray, context: np.ndarray) -> FitResult:
    """Least squares for the affect formation coefficients."""
    x = affect_design_matrix(exposure, matching, context)
    y = np.asarray(affect, dtype=float)
    n, p = x.shape
    if n <= p:
        raise EstimateError(f"need more than {p} rows to fit, got {n}")
    xtx = x.T @ x
    beta = solve_linear(xtx, x.T @ y)
    resid = y - x @ beta
    rss = float(resid @ resid)
    sigma2 = rss / (n - p)
    cov = sigma2 * invert_spd(xtx)
    se = np.sqrt(np.clip(np.diag(cov), 0.0, None))
    return FitResult(
        estimates=tuple(float(b) for b in beta),
        standard_errors=tuple(float(s) for s in se),
        names=AFFECT_TERMS,
        converged=True,
        iterations=1,
        n_obs=n,
        residual_variance=sigma2,
    )


def _log_likelihood(y_sign: np.ndarray, linear: np.ndarray) -> float:
    return float(-np.logaddexp(0.0, -y_sign * linear).sum())


def fit_logistic(outcomes: np.ndarray, covariates: np.ndarray,
                 names: tuple[str, ...] | None = None,
                 max_iter: int = 100) -> FitResult:
    """Logistic maximum likelihood via IRLS with step halving.

    Converges when the score's max norm drops below 1e-8 or the step
    below 1e-10. A parameter norm above 1e6 raises a separation error;
    hitting max_iter returns converged=False. The step-halving loop keeps
    the log-likelihood non-decreasing at every accepted step.
    """
    y = np.asarray(outcomes, dtype=float)
    x = np.asarray(covariates, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    n, p = x.shape
    if y.shape[0] != n:
        raise EstimateError("outcomes and covariates disagree on rows")
    pos = int(np.count_nonzero(y == 1.0))
    if pos == 0 or pos == n:
        raise EstimateError("need at least one positive and one negative outcome")
    if names is None:
        names = tuple(f"x{i}" for i in range(p))

    y_sign = 2.0 * y - 1.0
    beta = np.zeros(p)
    ll = _log_likelihood(y_sign, x @ beta)
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        linear = x @ beta
        prob = 1.0 / (1.0 + np.exp(-linear))
        score = x.T @ (y - prob)
        if np.max(np.abs(score)) < 1e-8:
            converged = True
            break
        weights = prob * (1.0 - prob)
        info = (x * weights[:, None]).T @ x
        step = solve_linear(info, score)
        scale = 1.0
        for _ in range(60):
            candidate = beta + scale * step
            new_ll = _log_likelihood(y_sign, x @ candidate)
            if new_ll >= ll:
                break
            scale *= 0.5
        else:
            converged = True  # no ascent left in this direction: optimum
            break
        moved = np.max(np.abs(candidate - beta))
        beta, ll = candidate, new_ll
        if np.linalg.norm(beta) > 1e6:
            raise EstimateError("complete separation: parameter norm diverged")
        if moved < 1e-10:
            converged = True
            break

    linear = x @ beta
    prob = 1.0 / (1.0 + np.exp(-linear))
    weights = prob * (1.0 - prob)
    info = (x * weights[:, None]).T @ x
    cov = invert_spd(info)
    se = np.sqrt(np.clip(np.diag(cov), 0.0, None))
    return FitResult(
        estimates=tuple(float(b) for b in beta),
        standard_errors=tuple(float(s) for s in se),
        names=names,
        converged=converged,
        iterations=iterations,
        n_obs=n,
        log_likelihood=ll,
    )


def wald_p_value(fit: FitResult, name: str) -> float:
    """Two-sided normal-approximation p-value for one coefficient."""
    est, se = fit.coefficient(name)
    if se == 0.0:
        return 0.0 if est != 0.0 else 1.0
    return 2.0 * normal_sf(abs(est) / se)


def implied_affect_coefficients(scenario: Scenario, design: Design) -> tuple[float, ...]:
    """Ground-truth regression coefficients for one design arm. The
    exposure slope folds in the hook amplification."""
    a = scenario.affect
    return (a.a0, a.a1 * (1.0 + design.hook), a.a2, a.a3, a.a4, a.a5)


def build_panel(scenario: Scenario, designs: tuple[Design, ...] | None = None,
                reps: int | None = None,
                master_seed: int | None = None) -> PanelData:
    """Simulate design arms and stack agent and edge rows.

    Arm a, replication r consumes the stream (master_seed, "panel", a, r):
    the cascade first, then the item measurement noise. The graph is the
    scenario's fixed graph unless per-rep regeneration is on.
    """
    if designs is None:
        designs = (scenario.design,)
    reps = scenario.reps if reps is None else reps
    master_seed = scenario.master_seed if master_seed is None else master_seed

    fixed_graph = None
    if not scenario.regenerate_graph_per_rep:
        fixed_graph = scenario_graph(scenario, master_seed)

    cols: dict[str, list[np.ndarray]] = {f: [] for f, _, _ in _PANEL_COLUMNS}
    for arm, design in enumerate(designs):
        for engine, ids in _rep_engines(scenario, fixed_graph, master_seed,
                                        range(reps), design):
            graph, n = engine.graph, engine.graph.n
            runs = _replications(engine, [(master_seed, "panel", arm, r)
                                          for r in ids], scenario.max_rounds)
            for r, (rng, result, _) in zip(ids, runs):
                att = result.attempts
                k = att.shape[0]
                sim = np.empty(0)
                same = np.empty(0, dtype=np.int64)
                if k:
                    sim = identity_similarity(graph.identity[att[:, 0]],
                                              graph.identity[att[:, 1]])
                    same = (graph.block[att[:, 0]]
                            == graph.block[att[:, 1]]).astype(np.int64)
                meme = 1 if design.format == "meme" else 0
                for f, values in (
                        ("arm", np.full(n, arm, dtype=np.int64)),
                        ("rep", np.full(n, r, dtype=np.int64)),
                        ("agent", np.arange(n, dtype=np.int64)),
                        ("items", measure_items(scenario.measurement,
                                                result.affect, rng)),
                        ("exposure", result.exposure.astype(np.int64)),
                        ("affect", result.affect),
                        ("matching", engine.match),
                        ("context", graph.context),
                        ("decision", result.active.astype(np.int64)),
                        ("influence", result.influence_counts()),
                        ("edge_arm", np.full(k, arm, dtype=np.int64)),
                        ("edge_rep", np.full(k, r, dtype=np.int64)),
                        ("sender", att[:, 0]),
                        ("target", att[:, 1]),
                        ("sender_affect", result.affect[att[:, 0]]),
                        ("similarity", sim),
                        ("meme", np.full(k, meme, dtype=np.int64)),
                        ("same_block", same),
                        ("success", att[:, 2])):
                    cols[f].append(values)

    def cat(f, fmt):
        if cols[f]:
            return np.concatenate(cols[f])
        return np.empty((0, 0) if f == "items" else 0,
                        dtype=np.int64 if fmt == "%d" else float)

    return PanelData(**{f: cat(f, fmt) for f, _, fmt in _PANEL_COLUMNS},
                     designs=tuple(designs))


def _affect_column(panel: PanelData, mode: str) -> np.ndarray:
    if mode == "oracle":
        return panel.affect
    if mode == "measurement":
        scores, _, converged, _ = factor_scores(panel.items)
        if not converged:
            raise EstimateError("factor scoring did not converge")
        return scores
    raise EstimateError(f"unknown mode {mode!r}; use 'oracle' or 'measurement'")


def activation_matrix(panel: PanelData, mode: str = "oracle",
                      arm: int | None = None):
    """Rows with a real decision opportunity (exposed or contacted), with
    covariates (intercept, affect, peer count)."""
    v = _affect_column(panel, mode)
    keep = (panel.exposure == 1) | (panel.influence > 0)
    if arm is not None:
        keep &= panel.arm == arm
    x = np.column_stack([np.ones(int(keep.sum())), v[keep],
                         panel.influence[keep].astype(float)])
    return panel.decision[keep].astype(float), x


def fit_activation(panel: PanelData, mode: str = "oracle",
                   arm: int | None = None) -> FitResult:
    y, x = activation_matrix(panel, mode=mode, arm=arm)
    return fit_logistic(y, x, names=("intercept", "affect", "peer_count"))


def edge_matrix(panel: PanelData):
    x = np.column_stack([
        np.ones(panel.n_edge_rows()),
        panel.sender_affect,
        panel.similarity,
        panel.meme.astype(float),
    ])
    return panel.success.astype(float), x


def fit_edge_transmission(panel: PanelData) -> FitResult:
    """Per-edge success logistic; the meme coefficient is the format
    effect under test. Needs attempts from both format classes to be
    identified, so build the panel with at least two arms."""
    y, x = edge_matrix(panel)
    return fit_logistic(y, x, names=("intercept", "sender_affect",
                                     "similarity", "meme"))


def _csv_columns(panel: PanelData, schema) -> list:
    cols = []
    for f, name, fmt in schema:
        values = getattr(panel, f)
        if f == "items":
            cols += [(f"{name}{k + 1}", fmt, values[:, k])
                     for k in range(values.shape[1])]
        else:
            cols.append((name, fmt, values))
    return cols


def write_panel_csv(panel: PanelData, agents_path: str, edges_path: str,
                    meta: str | None = None) -> None:
    """Write the panel as two CSV files, each opening with a `# meta`
    line when `meta` is given; %.17g round-trips every double, so
    read_panel_csv gives back the same arrays bit for bit."""
    write_csv(agents_path, meta, _csv_columns(panel, _AGENT_COLUMNS))
    write_csv(edges_path, meta, _csv_columns(panel, _EDGE_COLUMNS))


def _read_csv(path: str) -> tuple[list[str], list[list[str]]]:
    header: list[str] = []
    rows: list[list[str]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if not header:
                header = line.split(",")
            else:
                rows.append(line.split(","))
    if not header:
        raise EstimateError(f"{path}: no header row found")
    return header, rows


def _read_columns(path: str, schema) -> dict[str, np.ndarray]:
    header, rows = _read_csv(path)

    def col(name, fmt):
        idx = header.index(name)
        if fmt == "%d":
            return np.array([int(row[idx]) for row in rows], dtype=np.int64)
        return np.array([float(row[idx]) for row in rows])

    out = {}
    for f, name, fmt in schema:
        if f == "items":
            names = [h for h in header if h.startswith(name)]
            out[f] = np.empty((len(rows), len(names)))
            for k, h in enumerate(names):
                out[f][:, k] = col(h, fmt)
        else:
            out[f] = col(name, fmt)
    return out


def read_panel_csv(agents_path: str, edges_path: str) -> PanelData:
    """Inverse of write_panel_csv (metadata comment lines are skipped)."""
    return PanelData(**_read_columns(agents_path, _AGENT_COLUMNS),
                     **_read_columns(edges_path, _EDGE_COLUMNS))
