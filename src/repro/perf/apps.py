"""Application profiles: the paper's 20 representative cloud applications.

The paper benchmarks 20 open- and closed-source applications across the six
classes that dominate Azure's fleet (Parayil et al.): big data, web
applications, real-time communication, ML inference, web proxy, and DevOps
(Table III lists the class core-hour shares).

Per-platform, per-application *per-core speeds* are hardware measurements in
the paper (Sysbench, TailBench-style load sweeps, build timings).  We encode
them here as calibration data, normalized to Gen3 Genoa = 1.0, chosen to
reproduce the paper's reported results:

- Bergamo's generic 10%/6% per-core Sysbench slowdown vs Genoa/Milan,
- Table II's DevOps build slowdowns (speed = 1/slowdown, exactly),
- Table III's scaling factors, which emerge from the queueing model in
  :mod:`repro.perf.scaling` given these speeds (an app with ``bergamo ==
  gen3`` speed is insensitive to Bergamo's lower frequency and smaller
  per-core LLC; an app like Silo collapses on Bergamo's 2 MiB/core LLC),
- Fig. 8's CXL behaviour (Moses heavily memory-bound and CXL-hurt; HAProxy
  compute/network-bound with an ~11% peak-throughput penalty),
- the paper's observation that 20.2% of applications, weighted by fleet
  core-hours, run fully CXL-backed with no slowdown (``cxl_tolerant``).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Tuple

from ..core.checks import check_finite
from ..core.errors import ConfigError


class AppClass(str, enum.Enum):
    """The six application classes that run in the majority of Azure VMs."""

    BIG_DATA = "big data"
    WEB_APP = "web app"
    RTC = "real-time communication"
    ML_INFERENCE = "ml inference"
    WEB_PROXY = "web proxy"
    DEVOPS = "devops"


#: Share of production fleet core-hours per application class (Table III).
FLEET_CORE_HOUR_SHARE: Dict[AppClass, float] = {
    AppClass.BIG_DATA: 0.32,
    AppClass.WEB_APP: 0.27,
    AppClass.RTC: 0.24,
    AppClass.ML_INFERENCE: 0.11,
    AppClass.WEB_PROXY: 0.04,
    AppClass.DEVOPS: 0.01,
}

#: Platform keys accepted in speed tables.
PLATFORMS = ("gen1", "gen2", "gen3", "bergamo")


@dataclass(frozen=True)
class ApplicationProfile:
    """One representative application and its measured platform behaviour.

    Attributes:
        name: Application name as the paper reports it.
        app_class: One of the six fleet classes.
        production: True for Microsoft-internal services (the WebF-*
            applications, starred in Table III).
        latency_critical: True for applications with a tail-latency SLO;
            False for throughput-only DevOps builds.
        base_service_ms: Mean per-request service time on one Gen3 core.
        speed: Per-core speed on each platform, normalized to gen3 = 1.0.
        cxl_slowdown: Multiplicative service-time inflation measured when
            the application runs on GreenSKU-CXL (reused DDR4 via CXL at
            ~280 ns vs ~140 ns local) instead of GreenSKU-Efficient.
        cxl_tolerant: True when the application can run entirely
            CXL-backed with no slowdown (compute/network-bound).
        mem_boundedness: Fraction of service time bound on memory latency;
            documentation of *why* ``cxl_slowdown`` is what it is.
    """

    name: str
    app_class: AppClass
    production: bool = False
    latency_critical: bool = True
    base_service_ms: float = 1.0
    speed: Mapping[str, float] = field(default_factory=dict)
    cxl_slowdown: float = 1.0
    cxl_tolerant: bool = False
    mem_boundedness: float = 0.2

    def __post_init__(self) -> None:
        missing = [p for p in PLATFORMS if p not in self.speed]
        if missing:
            raise ConfigError(f"{self.name}: missing speeds for {missing}")
        for platform, value in self.speed.items():
            check_finite(value, f"{self.name}: speed on {platform}", above=0)
        check_finite(
            self.base_service_ms, f"{self.name}: service time", above=0
        )
        # CXL never speeds an application up.
        check_finite(
            self.cxl_slowdown, f"{self.name}: CXL slowdown", at_least=1.0
        )
        check_finite(
            self.mem_boundedness,
            f"{self.name}: mem_boundedness",
            at_least=0,
            at_most=1,
        )
        if self.cxl_tolerant and self.cxl_slowdown != 1.0:
            raise ConfigError(
                f"{self.name}: a CXL-tolerant app cannot have a CXL slowdown"
            )

    def speed_on(self, platform: str, cxl: bool = False) -> float:
        """Per-core speed on ``platform``, optionally behind CXL memory.

        Args:
            platform: ``"gen1"|"gen2"|"gen3"|"bergamo"``.
            cxl: Apply the measured CXL service-time inflation (used for
                GreenSKU-CXL/Full, which only differ from GreenSKU-
                Efficient in memory/storage).
        """
        if platform not in self.speed:
            raise ConfigError(
                f"{self.name}: unknown platform {platform!r}; "
                f"known: {sorted(self.speed)}"
            )
        base = self.speed[platform]
        if cxl and not self.cxl_tolerant:
            return base / self.cxl_slowdown
        return base

    def service_ms_on(self, platform: str, cxl: bool = False) -> float:
        """Mean per-request service time on ``platform``, milliseconds."""
        return self.base_service_ms / self.speed_on(platform, cxl=cxl)


def _app(
    name: str,
    app_class: AppClass,
    service_ms: float,
    gen1: float,
    gen2: float,
    bergamo: float,
    cxl_slowdown: float = 1.0,
    cxl_tolerant: bool = False,
    mem_boundedness: float = 0.2,
    production: bool = False,
    latency_critical: bool = True,
) -> ApplicationProfile:
    return ApplicationProfile(
        name=name,
        app_class=app_class,
        production=production,
        latency_critical=latency_critical,
        base_service_ms=service_ms,
        speed={"gen1": gen1, "gen2": gen2, "gen3": 1.0, "bergamo": bergamo},
        cxl_slowdown=cxl_slowdown,
        cxl_tolerant=cxl_tolerant,
        mem_boundedness=mem_boundedness,
    )


#: The 20 applications the paper studies.  Speeds reproduce Table III's
#: scaling factors through the queueing model; DevOps speeds are exactly
#: 1/slowdown from Table II.
APPLICATIONS: Tuple[ApplicationProfile, ...] = (
    # -- Big data (32% of fleet core-hours) --------------------------------
    _app(
        "Redis", AppClass.BIG_DATA, 0.25,
        gen1=0.87, gen2=0.96, bergamo=1.00,
        cxl_tolerant=True, mem_boundedness=0.30,
    ),
    _app(
        # Cache-craftiness: fits Genoa's 4.8 MiB/core LLC, collapses on
        # Bergamo's 2 MiB/core (and already missed on Rome/Milan).
        "Masstree", AppClass.BIG_DATA, 1.1,
        gen1=0.54, gen2=0.55, bergamo=0.55,
        cxl_slowdown=1.10, mem_boundedness=0.45,
    ),
    _app(
        # In-memory OLTP; LLC- and frequency-sensitive everywhere, the one
        # application that cannot adopt the GreenSKU against any baseline.
        "Silo", AppClass.BIG_DATA, 0.9,
        gen1=0.75, gen2=0.78, bergamo=0.45,
        cxl_slowdown=1.15, mem_boundedness=0.40,
    ),
    _app(
        "Shore", AppClass.BIG_DATA, 2.0,
        gen1=0.87, gen2=0.96, bergamo=1.00,
        cxl_slowdown=1.03, mem_boundedness=0.20,
    ),
    # -- Web applications (27%) --------------------------------------------
    _app(
        "Xapian", AppClass.WEB_APP, 4.0,
        gen1=0.70, gen2=0.72, bergamo=0.72,
        cxl_slowdown=1.08, mem_boundedness=0.35,
    ),
    _app(
        "WebF-Dynamic", AppClass.WEB_APP, 8.0,
        gen1=0.72, gen2=0.93, bergamo=0.85,
        cxl_slowdown=1.05, mem_boundedness=0.25, production=True,
    ),
    _app(
        "WebF-Hot", AppClass.WEB_APP, 6.0,
        gen1=0.62, gen2=0.82, bergamo=0.72,
        cxl_slowdown=1.06, mem_boundedness=0.30, production=True,
    ),
    _app(
        "WebF-Cold", AppClass.WEB_APP, 15.0,
        gen1=0.87, gen2=0.96, bergamo=1.00,
        cxl_slowdown=1.02, mem_boundedness=0.15, production=True,
    ),
    # -- Real-time communication (24%) -------------------------------------
    _app(
        # Statistical speech translation with large language models in
        # memory: the paper's exemplar of a CXL-hurt application (Fig. 8).
        "Moses", AppClass.RTC, 5.0,
        gen1=0.80, gen2=0.85, bergamo=0.85,
        cxl_slowdown=1.25, mem_boundedness=0.60,
    ),
    _app(
        "Sphinx", AppClass.RTC, 30.0,
        gen1=0.75, gen2=0.93, bergamo=0.85,
        cxl_slowdown=1.20, mem_boundedness=0.50,
    ),
    # -- ML inference (11%) -------------------------------------------------
    _app(
        "Img-DNN", AppClass.ML_INFERENCE, 10.0,
        gen1=0.87, gen2=0.96, bergamo=1.00,
        cxl_tolerant=True, mem_boundedness=0.25,
    ),
    # -- Web proxy (4%) ------------------------------------------------------
    _app(
        "Nginx", AppClass.WEB_PROXY, 0.5,
        gen1=0.78, gen2=0.85, bergamo=0.85,
        cxl_slowdown=1.03, mem_boundedness=0.10,
    ),
    _app(
        "Caddy", AppClass.WEB_PROXY, 0.6,
        gen1=0.87, gen2=0.96, bergamo=1.00,
        cxl_tolerant=True, mem_boundedness=0.10,
    ),
    _app(
        "Envoy", AppClass.WEB_PROXY, 0.4,
        gen1=0.87, gen2=0.96, bergamo=1.00,
        cxl_tolerant=True, mem_boundedness=0.08,
    ),
    _app(
        # Compute/network-bound load balancer: the paper's exemplar of a
        # CXL-tolerant latency-critical service (Fig. 8: ~11% peak loss).
        "HAProxy", AppClass.WEB_PROXY, 0.4,
        gen1=0.78, gen2=0.85, bergamo=0.85,
        cxl_slowdown=1.11, mem_boundedness=0.11,
    ),
    _app(
        "Traefik", AppClass.WEB_PROXY, 0.7,
        gen1=0.78, gen2=0.85, bergamo=0.85,
        cxl_slowdown=1.05, mem_boundedness=0.12,
    ),
    # -- DevOps (1%): throughput-only builds, speeds are 1/Table II ---------
    _app(
        "Build-Python", AppClass.DEVOPS, 1000.0,
        gen1=1 / 1.28, gen2=1 / 1.13, bergamo=1 / 1.15,
        cxl_slowdown=1.21 / 1.15, mem_boundedness=0.25,
        latency_critical=False,
    ),
    _app(
        "Build-Wasm", AppClass.DEVOPS, 1500.0,
        gen1=1 / 1.34, gen2=1 / 1.19, bergamo=1 / 1.15,
        cxl_slowdown=1.28 / 1.15, mem_boundedness=0.30,
        latency_critical=False,
    ),
    _app(
        "Build-PHP", AppClass.DEVOPS, 800.0,
        gen1=1 / 1.27, gen2=1 / 1.11, bergamo=1 / 1.17,
        cxl_slowdown=1.38 / 1.17, mem_boundedness=0.35,
        latency_critical=False,
    ),
    # The paper's 20th application: the fourth Microsoft production web
    # service (Section V names WebF-Mix; Table III omits its row).  Its
    # mixed request blend is not frequency-bound, making it the seventh
    # application that meets Gen3's SLO without scaling (Section VI counts
    # seven; Table III's 19 rows show six).
    _app(
        "WebF-Mix", AppClass.WEB_APP, 9.0,
        gen1=0.87, gen2=0.96, bergamo=1.00,
        cxl_slowdown=1.04, mem_boundedness=0.25, production=True,
    ),
)

#: Name -> profile lookup.
APP_BY_NAME: Dict[str, ApplicationProfile] = {
    app.name: app for app in APPLICATIONS
}


def get_app(name: str) -> ApplicationProfile:
    """Look up an application by name, with a helpful error."""
    try:
        return APP_BY_NAME[name]
    except KeyError:
        raise ConfigError(
            f"unknown application {name!r}; known: {sorted(APP_BY_NAME)}"
        ) from None


def apps_in_class(app_class: AppClass) -> List[ApplicationProfile]:
    """All profiled applications in one class."""
    return [a for a in APPLICATIONS if a.app_class == app_class]


def table3_apps() -> List[ApplicationProfile]:
    """The applications Table III reports, in the paper's row order."""
    order = [
        "Redis", "Masstree", "Silo", "Shore",
        "Xapian", "WebF-Dynamic", "WebF-Hot", "WebF-Cold",
        "Moses", "Sphinx",
        "Img-DNN",
        "Nginx", "Caddy", "Envoy", "HAProxy", "Traefik",
        "Build-Python", "Build-Wasm", "Build-PHP",
    ]
    return [get_app(name) for name in order]


def cxl_tolerant_core_hour_share() -> float:
    """Fleet core-hour share of CXL-tolerant applications (~20.2%).

    Weighted by class share and uniform within a class, mirroring how the
    VM allocation component assigns applications to VMs.
    """
    share = 0.0
    for app_class, class_share in FLEET_CORE_HOUR_SHARE.items():
        members = apps_in_class(app_class)
        if not members:
            continue
        tolerant = sum(1 for a in members if a.cxl_tolerant)
        share += class_share * tolerant / len(members)
    return share


def platform_for_generation(generation: int) -> str:
    """Map a baseline generation number (1, 2, 3) to a platform key."""
    mapping = {1: "gen1", 2: "gen2", 3: "gen3"}
    try:
        return mapping[generation]
    except KeyError:
        raise ConfigError(
            f"unknown baseline generation {generation}; expected 1, 2, or 3"
        ) from None
