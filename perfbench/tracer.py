"""Outside-in span tracer for the affinitykg pipeline.

The tracer never edits the program. It replaces selected public functions with
timing wrappers at every name a caller looks up (a module attribute, a name
bound by ``from x import f``, or a method on a class) and restores the
originals on exit. Each span records its name, start, end, parent span and
the stage it ran in; spans stay in memory until the caller writes them out.

A target that no longer exists in the program is recorded in ``absent``
instead of failing, and so is a counter whose function's arguments or result
changed shape, so a refactor of a layer cannot break a run.
"""

import contextlib
import functools
import importlib
import json
import sys
import time

PACKAGE = "affinitykg"

# Columns of one span record.
NAME, PARENT, STAGE, START, END = range(5)


def _is_tucker(params) -> bool:
    return getattr(params, "G", None) is not None


# Counters computed at the boundary: fn(tracer, args, kwargs, result).

def _count_grad_bytes(tracer, args, kwargs, result):
    tracer.add("models.loss_and_grads.grad_bytes", sum(g.nbytes for g in result[1].values()))
    if _is_tucker(args[0]):
        tracer.add("models.tucker_queries", 1)


def _count_scored_query(tracer, args, kwargs, result):
    if _is_tucker(args[0]):
        tracer.add("models.tucker_queries", 1)


def _count_ranked_queries(tracer, args, kwargs, result):
    tracer.add("evaluator.compute_ranks.queries", len(result))


def _count_filter_set(tracer, args, kwargs, result):
    if tracer.inside("evaluator.compute_ranks"):
        tracer.add("evaluator.filtered_candidates", len(result))


def _count_hits(tracer, args, kwargs, result):
    hits = args[2] if len(args) > 2 else kwargs["hits"]
    tracer.add("snn.analyze_predictions.hits", len(hits))


def _count_rows_scanned(tracer, args, kwargs, result):
    kg = args[0] if args else kwargs["kg"]
    tracer.add("snn.train_rows_scanned", len(kg.train))


def _count_records(tracer, args, kwargs, result):
    tracer.add("builder.read_records_csv.records", len(result))


def _count_pairs_kept(tracer, args, kwargs, result):
    report = result[1]
    tracer.add("builder.pairs_counted", report.n_pairs_counted)
    tracer.add("builder.pairs_kept", report.n_pairs)


# (module, attribute path, counter). The span name is "<module>.<path>".
TARGETS = (
    ("models", "loss_and_grads", _count_grad_bytes),
    ("models", "relation_matrix", None),
    ("models", "score_all_tails", _count_scored_query),
    ("trainer", "fit", None),
    ("trainer", "train_epoch", None),
    ("trainer", "adam_step", None),
    ("trainer", "sample_masks", None),
    ("trainer", "group_queries", None),
    ("trainer", "save_checkpoint", None),
    ("trainer", "load_checkpoint", None),
    ("evaluator", "evaluate", None),
    ("evaluator", "compute_ranks", _count_ranked_queries),
    ("evaluator", "rank_of_target", None),
    ("snn", "analyze_predictions", _count_hits),
    ("snn", "neighbors_grounded", _count_rows_scanned),
    ("snn", "knn_embedding", None),
    ("snn", "transform_embeddings", None),
    ("snn", "export_relation_heatmaps", None),
    ("builder", "read_records_csv", _count_records),
    ("builder", "build", _count_pairs_kept),
    ("builder", "count_pairs", None),
    ("builder", "mateos_filter", None),
    ("builder", "min_occurrence_filter", None),
    ("builder", "kcore_prune", None),
    ("kg", "load_kg_dir", None),
    ("kg", "save_kg_dir", None),
    ("kg", "add_reciprocals", None),
    ("kg", "KnownTrueSet.__init__", None),
    ("kg", "KnownTrueSet.tails_of", _count_filter_set),
    ("tensor_ops", "mode_n_product", None),
    ("tensor_ops", "require_finite", None),
    ("synthetic", "generate_population", None),
    ("synthetic", "write_records_csv", None),
    ("synthetic", "two_block_kg", None),
)


class Tracer:
    """Context manager that patches TARGETS on enter and restores them on exit."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans = []        # [name, parent index, stage index, start, end]
        self.counts = {}
        self.absent = []
        self._stack = []
        self._stage = -1
        self._patched = []     # (owner, attribute, original), in patch order

    # -- recording --

    def add(self, name: str, value) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def inside(self, name: str) -> bool:
        return any(self.spans[i][NAME] == name for i in self._stack)

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, self._stage, time.perf_counter(), None])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][END] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def stage(self, name: str):
        """Span around one CLI stage; every span opened inside shares its id."""
        index = self._open(name)
        outer, self._stage = self._stage, index
        self.spans[index][STAGE] = index
        try:
            yield index
        finally:
            self._close(index)
            self._stage = outer

    # -- patching --

    def _wrap(self, name: str, fn, count):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(index)
            if count is not None:
                try:
                    count(tracer, args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError):
                    # The arguments or result changed shape in the program:
                    # keep timing the function, report the counter as absent.
                    if f"{name}:counter" not in tracer.absent:
                        tracer.absent.append(f"{name}:counter")
            return result

        return wrapper

    def _set(self, owner, attribute: str, value) -> None:
        self._patched.append((owner, attribute, vars(owner)[attribute]))
        setattr(owner, attribute, value)

    def __enter__(self):
        try:
            self._patch_all()
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return self

    def _patch_all(self) -> None:
        modules = {}
        for module_name, _, _ in self.targets:
            try:
                modules[module_name] = importlib.import_module(f"{PACKAGE}.{module_name}")
            except ImportError:
                pass
        loaded = [mod for key, mod in sorted(sys.modules.items())
                  if key == PACKAGE or key.startswith(PACKAGE + ".")]
        for module_name, path, count in self.targets:
            name = f"{module_name}.{path}"
            module = modules.get(module_name)
            owner_name, _, attribute = path.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = vars(owner).get(attribute) if owner is not None else None
            if original is None:
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original, count)
            if owner_name:
                # A method: callers look it up on the class.
                self._set(owner, attribute, wrapper)
                continue
            for mod in loaded:
                if vars(mod).get(attribute) is original:
                    self._set(mod, attribute, wrapper)

    def __exit__(self, *exc):
        for owner, attribute, original in reversed(self._patched):
            setattr(owner, attribute, original)
        self._patched.clear()
        return False

    # -- summaries --

    def totals(self, stages=None) -> dict:
        """name -> {"calls", "s", "self_s"}, optionally only for spans in `stages`."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] >= 0:
                child_time[span[PARENT]] += span[END] - span[START]
        out: dict = {}
        for i, span in enumerate(self.spans):
            if stages is not None and span[STAGE] not in stages:
                continue
            duration = span[END] - span[START]
            row = out.setdefault(span[NAME], {"calls": 0, "s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["s"] += duration
            row["self_s"] += duration - child_time[i]
        return out

    def durations(self, name: str) -> list:
        return [s[END] - s[START] for s in self.spans if s[NAME] == name]

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, parent, stage, start, end) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "parent": parent, "stage": stage,
                                     "start": start, "end": end}) + "\n")
