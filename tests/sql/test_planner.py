"""The plan phase: stage pipelines and their description."""

import pytest

from repro.sql.errors import ParseError
from repro.sql.parser import parse
from repro.sql.planner import plan_select


def stages_of(sql: str):
    plan = plan_select(parse(sql))
    return plan, [type(stage).__name__ for stage in plan.stages()]


class TestStagePipelines:
    def test_plain_scan_project(self):
        plan, stages = stages_of("SELECT name FROM people")
        assert stages == ["ScanNode", "ProjectNode"]

    def test_full_single_table_pipeline(self):
        plan, stages = stages_of(
            "SELECT DISTINCT name FROM people WHERE age > 10 "
            "QUALIFY ROW_NUMBER() OVER (PARTITION BY city ORDER BY age) = 1 "
            "ORDER BY name LIMIT 3 OFFSET 1"
        )
        assert stages == [
            "ScanNode",
            "FilterNode",
            "WindowNode",
            "ProjectNode",
            "QualifyNode",
            "DistinctNode",
            "OrderNode",
            "LimitNode",
        ]

    def test_group_by_replaces_window_project_qualify(self):
        plan, stages = stages_of(
            "SELECT city, COUNT(*) FROM people GROUP BY city HAVING COUNT(*) > 1"
        )
        assert stages == ["ScanNode", "GroupNode"]
        assert plan.group is not None
        assert plan.group.having is not None

    def test_bare_aggregate_plans_a_group_stage(self):
        plan, _ = stages_of("SELECT COUNT(*) FROM people")
        assert plan.group is not None
        assert plan.group.keys == []

    def test_join_never_reaches_the_planner(self):
        with pytest.raises(ParseError, match="JOIN"):
            stages_of("SELECT a.name FROM people a JOIN people b ON a.name = b.name WHERE a.age > 1")

    def test_no_from_has_no_scan(self):
        plan, stages = stages_of("SELECT 1 + 1")
        assert plan.scan is None
        assert stages == ["ProjectNode"]

    def test_subquery_from_scans_the_derived_table(self):
        # The inner SELECT gets its own plan when it executes.
        plan, stages = stages_of("SELECT name FROM (SELECT name FROM people) sub")
        assert stages == ["ScanNode", "ProjectNode"]
        assert plan.scan.ref.subquery is not None

    def test_windows_collected_from_items_and_qualify_once(self):
        plan, _ = stages_of(
            "SELECT name, ROW_NUMBER() OVER (ORDER BY age) AS rn FROM people "
            "QUALIFY RANK() OVER (ORDER BY age) = 1"
        )
        assert plan.window is not None
        assert len(plan.windows) == 2


class TestDescribe:
    def test_describe_lists_stages_in_order(self):
        plan, _ = stages_of("SELECT name FROM people WHERE age > 1 ORDER BY name")
        text = plan.describe()
        lines = text.splitlines()
        assert lines[0] == "SelectPlan"
        assert "Scan(people)" in lines[1]
        assert "Filter" in lines[2]
        assert "Project" in lines[3]
        assert "Order" in lines[4]
