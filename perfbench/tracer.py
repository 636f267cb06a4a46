"""Traced child of the benchmark: times tautring's layers from outside.

    PYTHONPATH=src python perfbench/tracer.py SPANS.json -- xn check --n 5

installs timing wrappers around the functions of each tautring module, runs
``tautring.cli.main`` on the given arguments, writes the recorded spans to
SPANS.json and exits with the command's exit code.  The wrappers only
observe: the report must be identical to the one an untraced run prints.

A span is ``[name, start, end, parent, degree, value, leaves]``: ``parent``
is the index of the enclosing span (None for the root), ``value`` a
name-specific count (columns, blocks, bytes, ...), and ``leaves`` maps the
name of a hot function called directly inside the span to ``[calls,
seconds, value]`` totals, so that millions of kernel calls cost one
dictionary entry instead of one span each.  Every name is patched where its
callers look it up, because tautring modules import functions by name.

``layer_metrics`` (pure Python, no tautring import) turns a span file into
the per-layer metrics listed in BENCHMARK.json.
"""

import functools
import json
import os
import sys
import time

#: degrees with a ``kernel.columns.d<d>`` / ``algebra.basis_s.d<d>`` metric
DEGREES = range(7)


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.bases = []  # (degree, basis, recomputed)
        self.unpatched = []

    def span(self, name, fn, *, degree=None, value=None, only_if=None):
        """Wrap ``fn`` so that each call records one span.

        ``degree(*args)`` and ``value(result, *args)`` fill those fields;
        calls for which ``only_if(*args)`` is false (memo hits) are not
        recorded.
        """
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if only_if is not None and not only_if(*args, **kwargs):
                return fn(*args, **kwargs)
            record = [name, 0.0, 0.0, stack[-1] if stack else None,
                      degree(*args, **kwargs) if degree else None, None, {}]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if value is not None:
                record[5] = value(result, *args, **kwargs)
            return result

        return wrapper

    def leaf(self, name, fn, *, value=None):
        """Wrap a hot function: each call adds to the enclosing span's
        ``leaves[name]`` totals instead of recording a span."""
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = clock()
            result = fn(*args, **kwargs)
            elapsed = clock() - start
            leaves = spans[stack[-1]][6]
            totals = leaves.get(name)
            if totals is None:
                totals = leaves[name] = [0, 0.0, 0]
            totals[0] += 1
            totals[1] += elapsed
            if value is not None:
                totals[2] += value(result)
            return result

        return wrapper

    def patch_function(self, module_name, attr, make):
        """Replace the function ``module_name.attr`` in every tautring
        module that holds a reference to it."""
        original = getattr(sys.modules.get(module_name), attr, None)
        if original is None:
            self.unpatched.append(f"{module_name}.{attr}")
            return
        wrapped = make(original)
        for name, module in list(sys.modules.items()):
            if name != "tautring" and not name.startswith("tautring."):
                continue
            for key, held in list(vars(module).items()):
                if held is original:
                    setattr(module, key, wrapped)

    def patch_method(self, module_name, class_name, attr, make):
        cls = getattr(sys.modules.get(module_name), class_name, None)
        original = getattr(cls, "__dict__", {}).get(attr)
        try:
            if original is None:
                raise AttributeError(attr)
            setattr(cls, attr, make(original))
        except (TypeError, AttributeError):  # absent, or a compiled type
            self.unpatched.append(f"{module_name}.{class_name}.{attr}")

    def install(self):
        """Wrap the layers of the already imported tautring package."""
        span, leaf = self.span, self.leaf
        fn, method = self.patch_function, self.patch_method
        kernel = "tautring._kernel"
        reducer = getattr(sys.modules[kernel], "SpanReducer", None)
        reducer_module = getattr(reducer, "__module__", kernel)

        fn(kernel, "degree_keys", lambda f: span(
            "kernel.degree_keys", f, degree=lambda gen_keys, d: d))
        method(reducer_module, "SpanReducer", "insert_products",
               lambda f: span("kernel.insert_products", f))
        method(reducer_module, "SpanReducer", "insert", lambda f: leaf(
            "kernel.insert", f, value=lambda lead: 1 if lead < 0 else 0))

        alg = "tautring.algebra"
        method(alg, "GradedRing", "basis", lambda f: span(
            "algebra.basis", f, degree=lambda ring, d: d,
            only_if=lambda ring, d: d not in getattr(ring, "_basis_memo", ())))
        method(alg, "GradedRing", "_compute_basis", self._record_basis)
        method(alg, "GradedBasis", "rref", lambda f: span(
            "algebra.rref", f, degree=lambda basis: basis.degree,
            only_if=lambda basis: getattr(basis, "_rref", None) is None))
        method(alg, "GradedRing", "socle_table", lambda f: span(
            "algebra.socle_table", f,
            only_if=lambda ring: getattr(ring, "_socle_table_memo", None) is None))
        method(alg, "GradedRing", "gram_rank", lambda f: span(
            "algebra.gram", f, degree=lambda ring, d: d,
            only_if=lambda ring, d: min(d, ring.presentation.socle_degree - d)
            not in getattr(ring, "_gram_rank_memo", ())))
        method(alg, "GradedRing", "normal_form", lambda f: span(
            "algebra.normal_form", f))
        fn(alg, "_integer_rank", lambda f: span("algebra.integer_rank", f))

        cache = "tautring.cache"
        method(cache, "CacheStore", "get", lambda f: span(
            "cache.get", f, value=lambda payload, store, key: int(payload is not None)))
        method(cache, "CacheStore", "put", lambda f: span(
            "cache.put", f, value=lambda _, store, key, payload: os.path.getsize(
                store._path_for(key))))

        fn("tautring.xn", "xn_presentation", lambda f: span("xn.presentation", f))
        fn("tautring.xn", "socle_coefficient", lambda f: leaf("xn.socle_coefficient", f))
        fn("tautring.fm", "fm_presentation", lambda f: span("fm.presentation", f))
        fn("tautring.fm", "block_pairing", lambda f: span(
            "fm.block_pairing", f, value=lambda reports, *a, **k: len(reports)))
        fn("tautring.fm", "enumerate_standard_fm", lambda f: span(
            "fm.enumerate_standard", f, value=lambda found, *a, **k: len(found)))
        fn("tautring.hodge", "fiber_socle_of_psi", lambda f: span("hodge.fiber_socle", f))

    def _record_basis(self, compute):
        """Wrap GradedRing._compute_basis: remember each computed basis for
        the echelon counts, and whether it replaced a dimension-only one."""

        @functools.wraps(compute)
        def wrapper(ring, d):
            recomputed = d in getattr(ring, "_basis_memo", ())
            basis = compute(ring, d)
            self.bases.append((d, basis, recomputed))
            return basis

        return wrapper

    def dump(self, path, **header):
        """Write the spans, with per-basis echelon counts, as JSON."""
        bases = []
        for d, basis, recomputed in self.bases:
            rows = basis.echelon_rows() or ()
            nnz = sum(len(cols) for _, cols, _ in rows)
            bits = max((abs(c).bit_length() for _, _, coeffs in rows
                        for c in coeffs), default=0)
            bases.append([d, basis.monomial_count, int(recomputed), nnz, bits])
        doc = dict(header, unpatched=self.unpatched, spans=self.spans, bases=bases)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)


def layer_metrics(trace):
    """Per-layer metrics of one traced run, from its span document.

    Self time is a span's duration minus the durations of its direct child
    spans and of its leaf calls.  Elimination done for a Gram or block rank
    (an ``algebra.integer_rank`` span) is kept apart from basis elimination
    (leaf inserts under ``kernel.insert_products``) by the parent span.
    """
    spans = trace["spans"]
    covered = [0.0] * len(spans)
    for _, start, end, parent, *_ in spans:
        if parent is not None:
            covered[parent] += end - start

    def self_time(i):
        _, start, end, _, _, _, leaves = spans[i]
        return end - start - covered[i] - sum(t[1] for t in leaves.values())

    m = {f"kernel.columns.d{d}": 0 for d in DEGREES}
    m.update({f"algebra.basis_s.d{d}": 0.0 for d in DEGREES})
    for key in ("kernel.degree_keys_s", "kernel.row_gen_s", "kernel.elim_s",
                "algebra.basis_self_s", "algebra.rref_s", "algebra.socle_table_s",
                "algebra.gram_s", "algebra.nf_s", "cache.get_s", "cache.put_s",
                "xn.presentation_s", "fm.presentation_s", "hodge.fiber_socle_s",
                "fm.block_pairing_s", "fm.block_rank_s", "xn.socle_coefficient_s"):
        m[key] = 0.0
    for key in ("kernel.rows_inserted", "kernel.rows_zero", "kernel.echelon_nnz",
                "kernel.max_coeff_bits", "cache.recomputed_bases", "algebra.nf_calls",
                "cache.hits", "cache.misses", "cache.bytes_written", "fm.blocks",
                "fm.standard_monomials", "xn.socle_coefficient_calls"):
        m[key] = 0
    self_metric = {
        "kernel.insert_products": "kernel.row_gen_s",
        "algebra.basis": "algebra.basis_self_s",
        "algebra.rref": "algebra.rref_s",
        "algebra.socle_table": "algebra.socle_table_s",
        "algebra.gram": "algebra.gram_s",
        "algebra.normal_form": "algebra.nf_s",
        "cache.get": "cache.get_s",
        "cache.put": "cache.put_s",
        "kernel.degree_keys": "kernel.degree_keys_s",
        "xn.presentation": "xn.presentation_s",
        "fm.presentation": "fm.presentation_s",
        "hodge.fiber_socle": "hodge.fiber_socle_s",
        "fm.block_pairing": "fm.block_pairing_s",
    }
    for i, (name, start, end, parent, degree, value, leaves) in enumerate(spans):
        if name in self_metric:
            m[self_metric[name]] += self_time(i)
        parent_name = spans[parent][0] if parent is not None else None
        if name == "algebra.basis" and f"algebra.basis_s.d{degree}" in m:
            m[f"algebra.basis_s.d{degree}"] += end - start
        elif name == "algebra.integer_rank" and parent_name == "algebra.gram":
            m["algebra.gram_s"] += end - start
        elif name == "algebra.integer_rank" and parent_name == "fm.block_pairing":
            m["fm.block_rank_s"] += end - start
        elif name == "algebra.normal_form":
            m["algebra.nf_calls"] += 1
        elif name == "cache.get":
            m["cache.hits" if value else "cache.misses"] += 1
        elif name == "cache.put":
            m["cache.bytes_written"] += value
        elif name == "fm.block_pairing":
            m["fm.blocks"] += value
        elif name == "fm.enumerate_standard":
            m["fm.standard_monomials"] += value
        if name == "kernel.insert_products" and "kernel.insert" in leaves:
            calls, seconds, zero = leaves["kernel.insert"]
            m["kernel.rows_inserted"] += calls
            m["kernel.rows_zero"] += zero
            m["kernel.elim_s"] += seconds
        if "xn.socle_coefficient" in leaves:
            calls, seconds, _ = leaves["xn.socle_coefficient"]
            m["xn.socle_coefficient_calls"] += calls
            m["xn.socle_coefficient_s"] += seconds
    inserted = m["kernel.rows_inserted"]
    m["kernel.useful_row_ratio"] = (inserted - m["kernel.rows_zero"]) / inserted if inserted else 0.0
    for d, columns, recomputed, nnz, bits in trace["bases"]:
        if f"kernel.columns.d{d}" in m:
            m[f"kernel.columns.d{d}"] += columns
        m["cache.recomputed_bases"] += recomputed
        m["kernel.echelon_nnz"] += nnz
        m["kernel.max_coeff_bits"] = max(m["kernel.max_coeff_bits"], bits)
    return m


def main(argv):
    if len(argv) < 3 or argv[1] != "--":
        sys.exit("usage: tracer.py SPANS.json -- <tautring arguments>")
    import tautring
    import tautring.cli

    tracer = Tracer()
    tracer.install()
    cli = tracer.span("cli.main", tautring.cli.main)
    try:
        cli(argv[2:], prog_name="tautring", standalone_mode=False)
        code = 0
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
    tracer.dump(argv[0], tautring_file=tautring.__file__,
                kernel_backend=tautring.KERNEL_BACKEND)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
