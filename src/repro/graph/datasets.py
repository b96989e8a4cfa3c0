"""Surrogates for the paper's evaluation datasets (Table II).

The paper evaluates on four SNAP graphs.  This environment is offline, so we
generate deterministic synthetic surrogates matched to each dataset's node
count and average degree (the quantities the attacks and estimators are
sensitive to, which is why the substitution keeps exactly those two):

========  =========  ============  ===========
Dataset   Nodes      Edges         Avg. degree
========  =========  ============  ===========
facebook  4,039      88,234        43.7
enron     36,692     183,831       10.0
astroph   18,772     198,110       21.1
gplus     107,614    12,238,285    227.4
========  =========  ============  ===========

``load_dataset(name)`` returns the surrogate at its *default scale*: Facebook
is full size, the larger graphs are scaled down (same average degree, fewer
nodes) so that the whole experiment suite runs in minutes on a laptop.  Pass
``scale=1.0`` for the paper-sized versions.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import os
import shutil
import tempfile
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import Dict, List, Tuple, Union

import numpy as np

from repro.graph.adjacency import Graph
from repro.graph.generators import surrogate_social_graph
from repro.graph.io import read_edge_list
from repro.utils.rng import RngLike, child_rng
from repro.utils.validation import check_scale

#: Per-process surrogate memo size.  Multi-panel/multi-scenario batches ask
#: for the same ``(name, scale, seed)`` surrogate once per panel; generation
#: is deterministic and graphs are immutable, so one bounded memo per
#: process answers the repeats.  Bounded: at full scale a surrogate can be
#: tens of MB, so the memo must never grow with the scenario count.
_MEMO_SIZE = 8


@dataclass(frozen=True)
class DatasetSpec:
    """Statistics of one paper dataset and surrogate-generation knobs."""

    name: str
    paper_nodes: int
    paper_edges: int
    default_scale: float
    triangle_probability: float
    description: str

    @property
    def paper_average_degree(self) -> float:
        """Average degree of the original SNAP graph."""
        return 2.0 * self.paper_edges / self.paper_nodes

    def nodes_at_scale(self, scale: float) -> int:
        """Surrogate node count at a given scale factor."""
        check_scale(scale, "scale")
        return max(64, round(self.paper_nodes * scale))


#: Registry of the four Table II datasets.
DATASETS: Dict[str, DatasetSpec] = {
    "facebook": DatasetSpec(
        name="facebook",
        paper_nodes=4_039,
        paper_edges=88_234,
        default_scale=1.0,
        triangle_probability=0.7,
        description="Ego-network survey of Facebook app users (dense, clustered).",
    ),
    "enron": DatasetSpec(
        name="enron",
        paper_nodes=36_692,
        paper_edges=183_831,
        default_scale=0.12,
        triangle_probability=0.3,
        description="Enron email communication network (sparse).",
    ),
    "astroph": DatasetSpec(
        name="astroph",
        paper_nodes=18_772,
        paper_edges=198_110,
        default_scale=0.2,
        triangle_probability=0.6,
        description="arXiv Astro Physics co-authorship network.",
    ),
    "gplus": DatasetSpec(
        name="gplus",
        paper_nodes=107_614,
        paper_edges=12_238_285,
        default_scale=0.02,
        triangle_probability=0.4,
        description="Google+ social-circle share network (very dense).",
    ),
}


@dataclass(frozen=True)
class RealDatasetSpec:
    """One genuine SNAP dataset: where it lives and how to parse it.

    ``paper_nodes``/``paper_edges`` are the reference counts of the SNAP
    release (the Table II row), so stats tables render real and surrogate
    datasets through one code path.  ``sha256`` optionally pins the digest
    of the *decompressed* edge-list bytes; when ``None`` the digest is
    recorded on first fetch and every later load verifies against it
    (trust-on-first-use, the right default for an offline-developed tool).
    """

    name: str
    url: str
    paper_nodes: int
    paper_edges: int
    description: str
    sha256: Union[str, None] = None
    allow_self_loops: bool = True
    allow_duplicates: bool = True


#: Genuine SNAP releases of the four Table II datasets.  These are fetched
#: once into the content-addressed cache (``repro dataset fetch``), never at
#: import or experiment time.
REAL_DATASETS: Dict[str, RealDatasetSpec] = {
    "snap-facebook": RealDatasetSpec(
        name="snap-facebook",
        url="https://snap.stanford.edu/data/facebook_combined.txt.gz",
        paper_nodes=4_039,
        paper_edges=88_234,
        description="The genuine SNAP ego-Facebook combined edge list.",
    ),
    "snap-enron": RealDatasetSpec(
        name="snap-enron",
        url="https://snap.stanford.edu/data/email-Enron.txt.gz",
        paper_nodes=36_692,
        paper_edges=183_831,
        description="The genuine SNAP email-Enron communication network.",
    ),
    "snap-astroph": RealDatasetSpec(
        name="snap-astroph",
        url="https://snap.stanford.edu/data/ca-AstroPh.txt.gz",
        paper_nodes=18_772,
        paper_edges=198_110,
        description="The genuine SNAP ca-AstroPh co-authorship network.",
    ),
    "snap-gplus": RealDatasetSpec(
        name="snap-gplus",
        url="https://snap.stanford.edu/data/gplus_combined.txt.gz",
        paper_nodes=107_614,
        paper_edges=12_238_285,
        description="The genuine SNAP Google+ share network (very dense).",
    ),
}


def known_dataset_names() -> List[str]:
    """Every loadable dataset name: surrogates first, then real releases."""
    return sorted(DATASETS) + sorted(REAL_DATASETS)


def load_dataset(name: str, scale: float | None = None, rng: RngLike = 0) -> Graph:
    """Load a Table II dataset: surrogate by default, genuine when cached.

    Parameters
    ----------
    name:
        A surrogate — ``facebook``, ``enron``, ``astroph``, ``gplus`` — or a
        fetched real release — ``snap-facebook``, ``snap-enron``,
        ``snap-astroph``, ``snap-gplus``.  Real names load from the
        checksum-verified dataset cache (``fetch_dataset`` /
        ``repro dataset fetch``); ``rng`` is ignored for them — the data is
        the data.
    scale:
        Node-count scale factor in (0, 1].  Defaults to the dataset's
        laptop-friendly ``default_scale``.  The average degree is held at the
        paper value regardless of scale (capped below N).
    rng:
        Seed for deterministic generation; the default (0) makes repeated
        loads identical, which the benchmark harness relies on.

    Loads are memoized per process on the full ``(name, scale, seed)``
    tuple (bounded LRU), so every panel of a multi-panel scenario — and
    every scenario of a batched run — shares one generation of the same
    surrogate.  Passing a live :class:`numpy.random.Generator` bypasses the
    memo: a stateful stream makes repeated loads intentionally different.

    >>> g = load_dataset("facebook")
    >>> g.num_nodes
    4039
    """
    if name.lower() in REAL_DATASETS:
        return load_real_dataset(name, scale=scale)
    spec = _lookup(name)
    if scale is None:
        scale = spec.default_scale
    check_scale(scale, "scale")
    if isinstance(rng, (int, np.integer)):
        return _load_dataset_memo(spec.name, float(scale), int(rng))
    return _generate(spec, float(scale), rng)


@lru_cache(maxsize=_MEMO_SIZE)
def _load_dataset_memo(name: str, scale: float, seed: int) -> Graph:
    """Deterministic-seed loads, memoized (graphs are immutable values)."""
    return _generate(DATASETS[name], scale, seed)


def _generate(spec: DatasetSpec, scale: float, rng: RngLike) -> Graph:
    num_nodes = spec.nodes_at_scale(scale)
    target_degree = min(spec.paper_average_degree, num_nodes / 4.0)
    return surrogate_social_graph(
        num_nodes,
        target_degree,
        triangle_probability=spec.triangle_probability,
        rng=child_rng(rng, f"dataset-{spec.name}-{num_nodes}"),
    )


def dataset_statistics(name: str, scale: float | None = None, rng: RngLike = 0) -> Tuple[int, int]:
    """(nodes, edges) of the loaded dataset — the Table II row we actually use."""
    graph = load_dataset(name, scale=scale, rng=rng)
    return graph.num_nodes, graph.num_edges


def _lookup(name: str) -> DatasetSpec:
    key = name.lower()
    if key not in DATASETS:
        known = ", ".join(known_dataset_names())
        raise KeyError(f"unknown dataset {name!r}; known datasets: {known}")
    return DATASETS[key]


def lookup_spec(name: str) -> Union[DatasetSpec, RealDatasetSpec]:
    """The spec (surrogate or real) behind a dataset name, for stats tables."""
    key = name.lower()
    if key in REAL_DATASETS:
        return REAL_DATASETS[key]
    return _lookup(name)


# ----------------------------------------------------------------------
# Real-dataset cache: fetch once, content-addressed, checksum-verified
# ----------------------------------------------------------------------
#
# Layout, next to the result store (both resolve through REPRO_CACHE_DIR):
#
#   <cache>/datasets/<name>/<digest16>/graph.npz   parsed graph (pair codes)
#   <cache>/datasets/<name>/<digest16>/meta.json   digests + provenance
#   <cache>/datasets/<name>/CURRENT                digest16 of the live entry
#
# ``digest16`` is the first 16 hex chars of the sha256 of the decompressed
# edge-list bytes, so a re-fetch that changes content lands in a *new*
# directory and flips the CURRENT pointer — nothing is overwritten in place
# and loads memoized on the old path can never be served as the new data.

_CURRENT_POINTER = "CURRENT"
_FETCH_CHUNK_BYTES = 1 << 20


def dataset_cache_dir(name: str) -> Path:
    """Cache directory of one real dataset."""
    from repro.engine.cache import default_cache_dir

    return default_cache_dir() / "datasets" / name


def _lookup_real(name: str) -> RealDatasetSpec:
    key = name.lower()
    if key not in REAL_DATASETS:
        known = ", ".join(sorted(REAL_DATASETS))
        raise KeyError(f"unknown real dataset {name!r}; known real datasets: {known}")
    return REAL_DATASETS[key]


def cached_dataset_path(name: str) -> Union[Path, None]:
    """The live cache entry's ``graph.npz``, or None when never fetched."""
    spec = _lookup_real(name)
    root = dataset_cache_dir(spec.name)
    pointer = root / _CURRENT_POINTER
    try:
        digest16 = pointer.read_text(encoding="utf-8").strip()
    except OSError:
        return None
    path = root / digest16 / "graph.npz"
    return path if path.is_file() else None


def fetch_dataset(
    name: str, source: Union[str, os.PathLike, None] = None, force: bool = False
) -> Path:
    """Fetch, verify and cache one real dataset; returns its ``graph.npz``.

    Idempotent: a dataset already in the cache returns immediately unless
    ``force`` re-fetches.  ``source`` overrides the spec's URL with a local
    file or mirror URL — the supported path in offline environments.  The
    raw download streams to disk in chunks (gzip is detected by magic and
    decompressed on the fly), is hashed, checked against the spec's pinned
    ``sha256`` if any, and parsed with the strict-but-lenient-where-SNAP-
    needs-it :func:`repro.graph.io.read_edge_list` (node ids remapped to
    dense ``0..n-1`` codes, both edge directions collapsed).  The parsed
    graph lands in a content-addressed directory via atomic renames, so
    concurrent fetchers and crashes can never publish a torn entry.
    """
    spec = _lookup_real(name)
    root = dataset_cache_dir(spec.name)
    if not force:
        cached = cached_dataset_path(spec.name)
        if cached is not None:
            return cached

    root.mkdir(parents=True, exist_ok=True)
    staging = tempfile.mkdtemp(dir=root, prefix=".fetch-")
    try:
        text_path = Path(staging) / "edges.txt"
        digest = _materialize_edge_list(spec, source, text_path)
        if spec.sha256 is not None and digest != spec.sha256:
            raise RuntimeError(
                f"dataset {spec.name!r}: checksum mismatch — expected "
                f"{spec.sha256}, fetched {digest}; refusing to cache"
            )
        graph = read_edge_list(
            text_path,
            allow_self_loops=spec.allow_self_loops,
            allow_duplicates=spec.allow_duplicates,
        )

        entry = Path(staging) / "entry"
        entry.mkdir()
        npz_path = entry / "graph.npz"
        np.savez(
            npz_path,
            num_nodes=np.int64(graph.num_nodes),
            codes=graph.edge_codes.astype(np.int64),
        )
        meta = {
            "name": spec.name,
            "source": str(source) if source is not None else spec.url,
            "sha256": digest,
            "npz_sha256": _file_sha256(npz_path),
            "num_nodes": graph.num_nodes,
            "num_edges": graph.num_edges,
        }
        (entry / "meta.json").write_text(
            json.dumps(meta, indent=2, sort_keys=True), encoding="utf-8"
        )

        final = root / digest[:16]
        if final.exists():
            shutil.rmtree(final)
        os.replace(entry, final)
        pointer_tmp = Path(staging) / _CURRENT_POINTER
        pointer_tmp.write_text(digest[:16] + "\n", encoding="utf-8")
        os.replace(pointer_tmp, root / _CURRENT_POINTER)
        return final / "graph.npz"
    finally:
        shutil.rmtree(staging, ignore_errors=True)


def _materialize_edge_list(
    spec: RealDatasetSpec, source: Union[str, os.PathLike, None], dest: Path
) -> str:
    """Stream the raw dataset to ``dest`` (decompressed) and return its sha256."""
    if source is not None and Path(source).exists():
        reader = open(source, "rb")
    else:
        url = str(source) if source is not None else spec.url
        try:
            import urllib.request

            reader = urllib.request.urlopen(url)
        except Exception as error:
            raise RuntimeError(
                f"dataset {spec.name!r}: cannot download {url} ({error}); "
                "in offline environments pass a local copy via "
                f"fetch_dataset({spec.name!r}, source=<path>) or "
                f"'repro dataset fetch {spec.name} --source <path>'"
            ) from error
    hasher = hashlib.sha256()
    with reader:
        head = reader.read(2)
        if head == b"\x1f\x8b":
            # Re-open the stream through gzip: feed it a concatenating
            # wrapper so the two sniffed bytes are not lost.
            stream = gzip.GzipFile(fileobj=_Rechained(head, reader))
        else:
            stream = _Rechained(head, reader)
        with open(dest, "wb") as out:
            while True:
                block = stream.read(_FETCH_CHUNK_BYTES)
                if not block:
                    break
                hasher.update(block)
                out.write(block)
    return hasher.hexdigest()


class _Rechained:
    """A minimal binary stream replaying sniffed head bytes before the tail."""

    def __init__(self, head: bytes, tail):
        self._head = head
        self._tail = tail

    def read(self, size: int = -1) -> bytes:
        if self._head:
            if size is None or size < 0 or size >= len(self._head):
                head, self._head = self._head, b""
                rest = self._tail.read(-1 if size is None or size < 0 else size - len(head))
                return head + rest
            head, self._head = self._head[:size], self._head[size:]
            return head
        return self._tail.read(size)


def load_real_dataset(name: str, scale: float | None = None) -> Graph:
    """Load a fetched real dataset from the cache, checksum-verified.

    ``scale`` optionally keeps only the induced subgraph on the first
    ``max(64, round(n * scale))`` remapped nodes — a deterministic shrink
    for quick runs (``None``, the default, loads the full graph).  Loads
    are memoized per process on the *cache entry path*, which embeds the
    content digest: a re-fetch that changes the data flips the pointer to a
    new path and can never be answered by a stale memo entry.
    """
    spec = _lookup_real(name)
    path = cached_dataset_path(spec.name)
    if path is None:
        raise RuntimeError(
            f"real dataset {spec.name!r} is not in the cache; fetch it once "
            f"with 'python -m repro dataset fetch {spec.name}' (offline: add "
            "--source <local file>)"
        )
    if scale is not None:
        check_scale(scale, "scale")
    return _load_real_memo(spec.name, scale, str(path))


@lru_cache(maxsize=_MEMO_SIZE)
def _load_real_memo(name: str, scale: float | None, npz_path: str) -> Graph:
    """Verified loads, memoized on (name, scale, content-addressed path)."""
    path = Path(npz_path)
    meta_path = path.parent / "meta.json"
    try:
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as error:
        raise RuntimeError(
            f"real dataset {name!r}: cache entry {path.parent} is damaged "
            f"({error}); re-fetch with 'repro dataset fetch {name} --force'"
        ) from error
    digest = _file_sha256(path)
    if digest != meta.get("npz_sha256"):
        raise RuntimeError(
            f"real dataset {name!r}: {path} fails its checksum (expected "
            f"{meta.get('npz_sha256')}, found {digest}); the cache entry is "
            f"corrupt — re-fetch with 'repro dataset fetch {name} --force'"
        )
    with np.load(path) as archive:
        num_nodes = int(archive["num_nodes"])
        codes = archive["codes"].astype(np.int64)
    graph = Graph.from_codes(num_nodes, codes, assume_sorted_unique=True)
    if scale is None:
        return graph
    kept = max(64, round(num_nodes * scale))
    if kept >= num_nodes:
        return graph
    return graph.subgraph(np.arange(kept, dtype=np.int64))


def _file_sha256(path: Path) -> str:
    hasher = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(_FETCH_CHUNK_BYTES), b""):
            hasher.update(block)
    return hasher.hexdigest()
