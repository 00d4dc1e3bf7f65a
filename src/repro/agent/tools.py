"""Design tools the LLM agent operates (Tool Function Learning, Sec. 3.1).

The core contract: the agent never sees the 0/1 matrices themselves — tools
exchange *handles* into a workspace plus high-level characteristics
(size, complexity, error locations), exactly the paper's workaround for the
LLM token limit.  Each tool returns a :class:`ToolResult` whose message is
the text the agent reasons over.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.api.pipeline import PatternPipeline
from repro.drc.rules import rules_for_style
from repro.drc.violations import GridRegion
from repro.legalize.legalizer import LegalizationResult
from repro.metrics.stats import library_stats
from repro.squish.complexity import topology_complexity
from repro.squish.pattern import PatternLibrary


@dataclass
class ToolResult:
    """Outcome of one tool call, as the agent sees it."""

    ok: bool
    message: str
    data: Dict = field(default_factory=dict)


class Workspace:
    """Handle-addressed storage for topologies and the output library."""

    def __init__(self) -> None:
        self._topologies: Dict[str, np.ndarray] = {}
        self._styles: Dict[str, str] = {}
        self.library = PatternLibrary(name="agent-output")
        self._counter = 0

    def put(self, topology: np.ndarray, style: str) -> str:
        """Store a topology; returns its handle (a pseudo-path)."""
        self._counter += 1
        handle = f"workspace/topology_{self._counter:06d}.npy"
        self._topologies[handle] = np.asarray(topology, dtype=np.uint8)
        self._styles[handle] = style
        return handle

    def get(self, handle: str) -> np.ndarray:
        try:
            return self._topologies[handle]
        except KeyError:
            raise KeyError(f"unknown topology handle {handle!r}") from None

    def style_of(self, handle: str) -> str:
        return self._styles[handle]

    def drop(self, handle: str) -> None:
        """Free a topology (memory-friendliness of the working space)."""
        self._topologies.pop(handle, None)
        self._styles.pop(handle, None)

    def __len__(self) -> int:
        return len(self._topologies)


class AgentTools:
    """The tool suite bound to a pipeline and a workspace.

    Args:
        pipeline: the :class:`PatternPipeline` every tool that does work
            calls a primitive of.  Its model is the generator the tools
            drive (a batched engine client on the serving path); its store,
            when attached, is where ``Save_Library`` persists the output
            library (content-hash dedup) and what ``Analyze_Library``
            reports; its job, when set, records each primitive as a stage,
            and each stage entry is the job's cancel checkpoint.
        workspace: handle store (a fresh one is created by default).
        base_seed: offset mixed into every per-call seed for reproducibility.
    """

    def __init__(
        self,
        pipeline: PatternPipeline,
        workspace: Optional[Workspace] = None,
        base_seed: int = 0,
    ):
        self.pipeline = pipeline
        # Note: "workspace or Workspace()" would discard an *empty* caller
        # workspace (PatternLibrary-backed containers are falsy when empty).
        self.workspace = workspace if workspace is not None else Workspace()
        self.base_seed = base_seed
        self.call_log: List[Tuple[str, Dict]] = []
        self._registry: Dict[str, Callable[..., ToolResult]] = {
            "Topology_Generation": self.topology_generation,
            "Topology_Extension": self.topology_extension,
            "Legalization": self.legalization,
            "Topology_Modification": self.topology_modification,
            "Topology_Selection": self.topology_selection,
            "Analyze_Library": self.analyze_library,
            "Save_Library": self.save_library,
        }

    @property
    def model(self):
        return self.pipeline.model

    @property
    def store(self):
        return self.pipeline.store

    # -- registry ------------------------------------------------------

    def names(self) -> List[str]:
        return sorted(self._registry)

    def call(self, name: str, **kwargs) -> ToolResult:
        """Dispatch a tool call by name (the agent's Action)."""
        self.call_log.append((name, dict(kwargs)))
        fn = self._registry.get(name)
        if fn is None:
            return ToolResult(
                ok=False,
                message=f"unknown tool {name!r}; available: {self.names()}",
            )
        try:
            return fn(**kwargs)
        except (KeyError, ValueError, RuntimeError) as exc:
            # Typed serving control-flow must propagate with its class
            # intact: engine backpressure/deadline errors carry the stable
            # machine-readable ``code`` the service's terminal job state is
            # keyed on, and a cancel (raised when a primitive enters its
            # stage) must abort the whole request — neither is a tool
            # failure the agent should retry around.
            from repro.serve.engine import EngineError
            from repro.serve.jobs import JobCancelled

            if isinstance(exc, (EngineError, JobCancelled)):
                raise
            return ToolResult(ok=False, message=f"tool error: {exc}")

    def documentation(self) -> str:
        """Tool descriptions injected into the agent prompt (#2 in Fig. 4)."""
        return (
            "Topology_Generation(seed, style, size): sample a size x size "
            "topology of the given style; returns a topology path.\n"
            "Topology_Extension(topology_path, target_size, method, style, "
            "seed): extend a topology to target_size via method 'Out' "
            "(out-painting) or 'In' (in-painting); returns a topology path.\n"
            "Legalization(topology_path, physical_size): legalize the "
            "topology into physical_size nm; on success the pattern joins "
            "the output library, on failure the log names the failed "
            "region.\n"
            "Topology_Modification(topology_path, upper, left, bottom, "
            "right, style, seed): regenerate the given cell region of the "
            "topology; returns a new topology path.\n"
            "Topology_Selection(seed, style, count, physical_size, size, "
            "max_attempts): generate-and-select — keep sampling topologies "
            "and keep only those that legalize, until count legal patterns "
            "join the library (guarantees legality at the cost of wasted "
            "samplings; disabled in Table-1 comparisons).\n"
            "Analyze_Library(): report count/diversity statistics of the "
            "output library.\n"
            "Save_Library(): persist the output library into the attached "
            "indexed pattern store (content-hash deduplicated); fails when "
            "no store is attached."
        )

    # -- tools ---------------------------------------------------------

    def _rng(self, seed: int) -> np.random.Generator:
        return np.random.default_rng((self.base_seed * 1_000_003 + seed) % (2**63))

    def topology_generation(
        self, seed: int, style: str, size: Optional[int] = None
    ) -> ToolResult:
        """Random Topology Generation under a style condition."""
        size = size or self.model.window
        if size > self.model.window:
            return ToolResult(
                ok=False,
                message=(
                    f"requested size {size} exceeds model window "
                    f"{self.model.window}; use Topology_Extension"
                ),
            )
        topo = self.pipeline.sample_topologies(
            1, style, size=size, rng=self._rng(seed)
        )[0]
        handle = self.workspace.put(topo, style)
        cx, cy = topology_complexity(topo)
        return ToolResult(
            ok=True,
            message=(
                f"generated {size}x{size} topology of style {style} at "
                f"{handle}; complexity (cx={cx}, cy={cy})"
            ),
            data={"topology_path": handle, "complexity": (cx, cy)},
        )

    def topology_extension(
        self,
        topology_path: str,
        target_size: int,
        method: str = "Out",
        style: Optional[str] = None,
        seed: int = 0,
    ) -> ToolResult:
        """Extend a topology to ``target_size`` (In/Out-Painting)."""
        topo = self.workspace.get(topology_path)
        style = style or self.workspace.style_of(topology_path)
        method_key = method.lower()
        if method_key not in ("in", "out"):
            return ToolResult(ok=False, message=f"unknown method {method!r}")
        result = self.pipeline.extend_one(
            target_size,
            style,
            method=method_key,
            rng=self._rng(seed),
            seed_topology=topo if topo.shape == (self.model.window,) * 2 else None,
        )
        handle = self.workspace.put(result.topology, style)
        return ToolResult(
            ok=True,
            message=(
                f"extended to {target_size}x{target_size} via "
                f"{method}-painting with {result.samplings} samplings; "
                f"result at {handle}"
            ),
            data={"topology_path": handle, "samplings": result.samplings},
        )

    def legalization(
        self,
        topology_path: str,
        physical_size: Tuple[int, int],
    ) -> ToolResult:
        """Legalize; success adds the pattern to the output library."""
        topo = self.workspace.get(topology_path)
        style = self.workspace.style_of(topology_path)
        result: LegalizationResult = self.pipeline.legalize_one(
            topo, style, physical_size
        )
        if result.ok:
            self.workspace.library.add(result.pattern)
            return ToolResult(
                ok=True,
                message=f"legalization succeeded; pattern added to library "
                f"(size {len(self.workspace.library)})",
                data={"pattern_index": len(self.workspace.library) - 1},
            )
        region = result.failed_region.as_tuple() if result.failed_region else None
        return ToolResult(
            ok=False,
            message=(
                "legalization FAILED.\n"
                + result.log_text()
                + (f"\nFAILED REGION: {region}" if region else "")
            ),
            data={"failed_region": region, "log": result.log},
        )

    def topology_modification(
        self,
        topology_path: str,
        upper: int,
        left: int,
        bottom: int,
        right: int,
        style: Optional[str] = None,
        seed: int = 0,
    ) -> ToolResult:
        """Regenerate a cell region of an existing topology (Eq. 12)."""
        topo = self.workspace.get(topology_path)
        style = style or self.workspace.style_of(topology_path)
        rows, cols = topo.shape
        region = GridRegion(
            max(0, upper),
            max(0, left),
            min(rows - 1, bottom),
            min(cols - 1, right),
        )
        repaired = self.pipeline.modify_one(
            topo, region, style, rng=self._rng(seed)
        )
        handle = self.workspace.put(repaired, style)
        return ToolResult(
            ok=True,
            message=(
                f"modified region {region.as_tuple()} with style {style}; "
                f"result at {handle}"
            ),
            data={"topology_path": handle},
        )

    def topology_selection(
        self,
        seed: int,
        style: str,
        count: int,
        physical_size: Optional[Tuple[int, int]] = None,
        size: Optional[int] = None,
        max_attempts: Optional[int] = None,
    ) -> ToolResult:
        """Generate-and-select: sample until ``count`` legal patterns found.

        The selection trick every squish-based method can apply to reach
        100% legality (Sec. 4.1); the Table-1 protocol disables it, but the
        agent may use it when a user demands a guaranteed-legal library.
        """
        from repro.metrics.legality import physical_size_for

        size = size or self.model.window
        if size > self.model.window:
            return ToolResult(
                ok=False,
                message="selection works on window-sized topologies; extend "
                "afterwards or select over extended topologies manually",
            )
        max_attempts = max_attempts or count * 10
        physical = physical_size or physical_size_for((size, size))
        rules = rules_for_style(style)
        rng = self._rng(seed)
        kept = 0
        attempts = 0
        while kept < count and attempts < max_attempts:
            attempts += 1
            topo = self.pipeline.sample_topologies(
                1, style, size=size, rng=rng
            )[0]
            result = self.pipeline.legalize_one(
                topo, style, physical, rules=rules
            )
            if result.ok:
                self.workspace.library.add(result.pattern)
                kept += 1
        ok = kept >= count
        return ToolResult(
            ok=ok,
            message=(
                f"selection kept {kept}/{count} legal pattern(s) in "
                f"{attempts} attempt(s)"
                + ("" if ok else "; attempt budget exhausted")
            ),
            data={"kept": kept, "attempts": attempts},
        )

    def analyze_library(self) -> ToolResult:
        """Report aggregate statistics of the output library (and store)."""
        stats = library_stats(self.workspace.library)
        data = stats.as_dict()
        message = f"library statistics: {data}"
        if self.store is not None:
            store_stats = self.store.stats()
            data["store"] = store_stats
            message += f"; persistent store: {store_stats}"
        return ToolResult(ok=True, message=message, data=data)

    def save_library(self) -> ToolResult:
        """Persist the output library into the attached indexed store.

        Patterns reach the output library only through successful
        legalization, so they are recorded as legal; topologies already in
        the store are deduplicated by content hash.
        """
        if self.store is None:
            return ToolResult(
                ok=False,
                message="no pattern store attached; Save_Library unavailable",
            )
        if len(self.workspace.library) == 0:
            return ToolResult(
                ok=False, message="output library is empty; nothing to save"
            )
        # The same persist primitive the CLI and the serving path use.
        report = self.pipeline.persist_library(self.workspace.library)
        return ToolResult(
            ok=True,
            message=(
                f"saved {report.added} new pattern(s) to the store, "
                f"{report.deduplicated} duplicate(s) skipped; store now "
                f"holds {len(self.store)} unique pattern(s)"
            ),
            data={
                "added": report.added,
                "deduplicated": report.deduplicated,
                "hashes": report.hashes,
            },
        )
