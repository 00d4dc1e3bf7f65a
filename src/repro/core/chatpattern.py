"""The ChatPattern facade: natural language in, legal pattern library out.

Wires the two halves of the system together (Fig. 1): the expert LLM agent
(planner + executor + tools + documents) as the front end and the
conditional discrete diffusion generator as the back end.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.agent.backend import LLMBackend, SimulatedLLM
from repro.agent.documents import ExperienceDocuments, WorkHistory
from repro.agent.executor import SubTaskReport, TaskExecutor
from repro.agent.planner import Plan, TaskPlanner
from repro.agent.tools import AgentTools, Workspace
from repro.api.config import PipelineConfig, TrainConfig
from repro.api.pipeline import PatternPipeline
from repro.data.dataset import DatasetConfig
from repro.data.styles import STYLES
from repro.squish.pattern import PatternLibrary


@dataclass
class ChatResult:
    """Everything one request produced."""

    plan: Plan
    reports: List[SubTaskReport]
    library: PatternLibrary
    history: WorkHistory

    @property
    def produced(self) -> int:
        return sum(r.produced for r in self.reports)

    @property
    def dropped(self) -> int:
        return sum(r.dropped for r in self.reports)

    def summary(self) -> str:
        """Final answer text (#7 in Fig. 4)."""
        lines = [
            f"Planned {len(self.plan.requirements)} sub-task(s) for "
            f"{self.plan.total_count} pattern(s); produced {self.produced} "
            f"legal pattern(s), dropped {self.dropped}."
        ]
        lines.extend(r.summary() for r in self.reports)
        return "\n".join(lines)


class ChatPattern:
    """LLM-powered layout pattern library builder.

    Args:
        pipeline: the :class:`PatternPipeline` the agent's tools route
            through; its model is the trained back-end
            (``PatternPipeline(model=...)`` wraps one already fitted, and
            :meth:`pretrained` trains one on the synthetic dataset in a few
            seconds) and its store receives ``Save_Library``.
        backend: LLM backend; defaults to the offline :class:`SimulatedLLM`.
        documents: experience documents (extension statistics etc.).
        max_retries: per-pattern legalization recovery budget.
    """

    def __init__(
        self,
        pipeline: PatternPipeline,
        backend: Optional[LLMBackend] = None,
        documents: Optional[ExperienceDocuments] = None,
        max_retries: int = 2,
        base_seed: int = 0,
    ):
        if not pipeline.model.fitted:
            raise ValueError("model must be fitted; see ChatPattern.pretrained")
        self.pipeline = pipeline
        self.backend = backend or SimulatedLLM()
        self.documents = documents or ExperienceDocuments()
        self.max_retries = max_retries
        self.base_seed = base_seed

    @property
    def model(self):
        return self.pipeline.model

    @classmethod
    def pretrained(
        cls,
        styles: tuple = STYLES,
        train_count: int = 48,
        window: int = 128,
        seed: Optional[int] = None,
        backend: Optional[LLMBackend] = None,
        dataset_config: Optional[DatasetConfig] = None,
        registry=None,
        model_cache: Optional[str] = None,
        **kwargs,
    ) -> "ChatPattern":
        """Build + train the full system on the synthetic dataset.

        A back-compat facade over the typed pipeline API: the arguments
        become a :class:`TrainConfig` and the fitted back-end is resolved
        through the shared :class:`~repro.serve.registry.ModelRegistry`
        (memory LRU, plus the ``model_cache`` disk tier when given), so
        repeated calls with the same recipe reuse the fitted model instead
        of retraining.

        When ``dataset_config`` is given its ``topology_size`` defines the
        model window — the model must generate the tiles it was trained on,
        so a conflicting ``window`` argument is overridden.  The recipe's
        single seed is an explicit ``seed`` argument if given, else the
        ``dataset_config`` seed, else the paper's 2024.
        """
        if seed is None:
            seed = (
                dataset_config.seed if dataset_config is not None else 2024
            )
        cfg = dataset_config or DatasetConfig(topology_size=window, seed=seed)
        train = TrainConfig(
            styles=tuple(styles),
            window=cfg.topology_size,
            train_count=train_count,
            seed=seed,
            tile_nm=cfg.tile_nm,
            map_scale=cfg.map_scale,
        )
        pipeline = PatternPipeline(
            PipelineConfig(train=train, model_cache=model_cache),
            registry=registry,
        )
        return cls(pipeline, backend=backend, **kwargs)

    def handle_request(
        self, user_text: str, objective: str = "legality"
    ) -> ChatResult:
        """End-to-end: auto-format, plan, execute, summarise (Fig. 4)."""
        workspace = Workspace()
        tools = AgentTools(self.pipeline, workspace, base_seed=self.base_seed)
        planner = TaskPlanner(
            self.backend,
            documents=self.documents,
            window=self.model.window,
            tool_documentation=tools.documentation(),
        )
        plan = planner.auto_format(user_text, objective=objective)
        history = WorkHistory()
        executor = TaskExecutor(
            tools, self.backend, history=history, max_retries=self.max_retries
        )
        reports = [executor.execute(req) for req in plan.requirements]
        return ChatResult(
            plan=plan,
            reports=reports,
            library=workspace.library,
            history=history,
        )
