"""The plan phase: stage pipelines and their description."""

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
            "SELECT name FROM people WHERE age > 10 "
            "QUALIFY ROW_NUMBER() OVER (PARTITION BY city ORDER BY age) = 1"
        )
        assert stages == ["ScanNode", "FilterNode", "QualifyNode", "ProjectNode"]

    def test_count_replaces_project(self):
        plan, stages = stages_of("SELECT COUNT(*) FROM people WHERE age > 1")
        assert stages == ["ScanNode", "FilterNode", "CountNode"]
        assert plan.project is None

    def test_no_from_has_no_scan(self):
        plan, stages = stages_of("SELECT 1")
        assert plan.scan is None
        assert stages == ["ProjectNode"]


class TestDescribe:
    def test_describe_lists_stages_in_order(self):
        plan, _ = stages_of(
            "SELECT name FROM people WHERE age > 1 "
            "QUALIFY ROW_NUMBER() OVER (PARTITION BY city, name ORDER BY age DESC) = 1"
        )
        lines = plan.describe().splitlines()
        assert lines[0] == "SelectPlan"
        assert "Scan(people)" in lines[1]
        assert "Filter" in lines[2]
        assert "Qualify(partition_keys=2)" in lines[3]
        assert "Project" in lines[4]
