"""Continuation into the degenerate regime (mu = 0, p < 2).

The operator at eta = mu = 0 cannot be attacked directly for p != 2, so the
solver walks a geometric (eta, mu) path, starting each step from the
secant predictor v_{j-1} + r (v_{j-1} - v_{j-2}) of the last two solutions,
r the ratio of this path step to the last.  Two things are worth watching:
the second-derivative norm stays inside a narrow band all the way down (the
uniformity the regularization limit needs), and the step changes
||v_j - v_{j-1}|| shrink geometrically, so the iterates are Cauchy.

A byproduct worth checking: the degenerate solution obeys the exact scaling
solve(lambda f) = lambda^(1/(p-1)) solve(f), verified at the end.
"""

from pstruct import grid, problems, solver
from pstruct.constitutive import ConstitutiveParams

dom = grid.build_domain("dirichlet_box", 16)
f = grid.apply_constraints(dom, problems.rhs_sample(dom, "smooth-trig", 1.0))
p = 1.5
prob = problems.ProblemSpec(dom, ConstitutiveParams(p=p, mu=0.0), f=f)

path = solver.ContinuationPath.geometric(eta0=1e-2, mu0=0.0, ratio=0.5,
                                         eta_floor=1e-8, mu_floor=0.0)
v, report = solver.continuation_solve(prob, solver.SolveConfig(outer_tol=1e-10,
                                                               continuation=path))
print(f"p={p}, mu=0, eta path 1e-2 -> 1e-8 in {len(path.eta_path)} steps")
print("step   eta          ||D2 v||_2       step change")
for j, (eta, mu, d2, delta) in enumerate(report.continuation_trace):
    tail = "Poisson start" if j == 0 else f"{delta:.3e}"
    if j % 3 == 0 or j == len(path.eta_path) - 1:
        print(f"{j:<6d} {eta:<12.3e} {d2:<16.12f} {tail}")

d2s = [row[2] for row in report.continuation_trace]
print(f"second-derivative band: [{min(d2s):.6f}, {max(d2s):.6f}] "
      f"(spread {max(d2s) / min(d2s) - 1.0:.2%})")

lam = 4.0
path2 = solver.ContinuationPath.geometric(eta0=1e-2, mu0=0.0, ratio=0.5,
                                          eta_floor=1e-8, mu_floor=0.0)
v4, _ = solver.continuation_solve(
    problems.ProblemSpec(dom, ConstitutiveParams(p=p, mu=0.0), f=lam * f),
    solver.SolveConfig(outer_tol=1e-10, continuation=path2),
)
scale = lam ** (1.0 / (p - 1.0))
gap = grid.norm(dom, v4 - scale * v, 2, sobolev_level=1) / grid.norm(dom, v4, 2, sobolev_level=1)
print(f"homogeneity: ||solve(4f) - 4^(1/(p-1)) solve(f)|| / ||solve(4f)|| = {gap:.3e}")
