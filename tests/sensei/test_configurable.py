"""Tests for XML parsing and ConfigurableAnalysis."""

from __future__ import annotations

import numpy as np
import pytest

from repro.binning.reduce import ReductionOp
from repro.binning.strategies import BinningStrategy
from repro.errors import ConfigError
from repro.hamr.allocator import HOST_DEVICE_ID
from repro.sensei.backends.binning import BinningAnalysis
from repro.sensei.configurable import ConfigurableAnalysis
from repro.sensei.data_adaptor import TableDataAdaptor
from repro.sensei.execution import ExecutionMethod
from repro.sensei.placement import PlacementMode
from repro.sensei.xml_config import AnalysisCommon, parse_xml
from repro.svtk.table import TableData


def make_adaptor(n=50, seed=0):
    rng = np.random.default_rng(seed)
    t = TableData("bodies")
    t.add_host_column("x", rng.uniform(-1, 1, n))
    t.add_host_column("y", rng.uniform(-1, 1, n))
    t.add_host_column("mass", rng.uniform(0.5, 1.5, n))
    return TableDataAdaptor({"bodies": t})


class TestParseXml:
    def test_basic_document(self):
        cfgs = parse_xml(
            """
            <sensei>
              <analysis type="data_binning" mesh="bodies" axes="mass" bins="16"/>
              <analysis type="data_binning" enabled="0" mesh="bodies"/>
            </sensei>
            """
        )
        assert len(cfgs) == 2
        assert cfgs[0].type == "data_binning"
        assert cfgs[0].enabled
        assert cfgs[0].attrs == {"mesh": "bodies", "axes": "mass", "bins": "16"}
        assert not cfgs[1].enabled

    def test_malformed_xml(self):
        with pytest.raises(ConfigError, match="malformed"):
            parse_xml("<sensei><analysis></sensei>")

    def test_wrong_root(self):
        with pytest.raises(ConfigError, match="root"):
            parse_xml("<config/>")

    def test_unknown_element(self):
        with pytest.raises(ConfigError, match="unexpected"):
            parse_xml("<sensei><backend type='x'/></sensei>")

    @pytest.mark.parametrize("plane", ["transport", "control", "service"])
    def test_plane_elements_are_rejected(self, plane):
        """The document configures analyses only: the transport, control
        and service planes are configured by their dataclasses."""
        with pytest.raises(ConfigError, match=f"unexpected element <{plane}>"):
            parse_xml(f"<sensei><{plane}/><analysis type='x'/></sensei>")

    def test_missing_type(self):
        with pytest.raises(ConfigError, match="type"):
            parse_xml("<sensei><analysis mesh='m'/></sensei>")

    def test_bad_enabled(self):
        with pytest.raises(ConfigError, match="enabled"):
            parse_xml("<sensei><analysis type='x' enabled='maybe'/></sensei>")

    def test_attr_accessors(self):
        """Common attributes arrive typed (``cfg.common``), the rest raw
        (``cfg.attrs``); the hand-rolled typed getters are gone."""
        cfg = parse_xml(
            "<sensei><analysis type='t' name='n' execution='async' "
            "placement='auto' devices_per_node='2' stride='2' "
            "a='1' c='x, y ,z'/></sensei>"
        )[0]
        assert cfg.common == AnalysisCommon(
            name="n", execution=ExecutionMethod.ASYNCHRONOUS,
            placement=PlacementMode.AUTO, n_use=2, stride=2,
        )
        assert cfg.attrs == {"a": "1", "c": "x, y ,z"}

    def test_bad_common_attribute_names_element_and_attribute(self):
        with pytest.raises(ConfigError, match="type='t'.*'offset'.*int"):
            parse_xml("<sensei><analysis type='t' offset='far'/></sensei>")


class TestConfigurableAnalysis:
    def test_builds_and_runs_binning(self):
        ca = ConfigurableAnalysis(xml="""
            <sensei>
              <analysis type="data_binning" mesh="bodies" axes="x,y"
                        bins="8,8" variables="mass:sum" placement="host"/>
            </sensei>
        """)
        assert len(ca.children) == 1
        ca.execute(make_adaptor())
        ca.finalize()
        child = ca.children[0]
        assert isinstance(child, BinningAnalysis)
        assert child.latest.cell_array_as_grid("mass_sum").sum() > 0

    def test_disabled_analyses_skipped(self):
        ca = ConfigurableAnalysis(xml="""
            <sensei>
              <analysis type="data_binning" enabled="0" mesh="m"/>
            </sensei>
        """)
        assert ca.children == []

    def test_execution_and_placement_attributes_applied(self):
        ca = ConfigurableAnalysis(xml="""
            <sensei>
              <analysis type="data_binning" mesh="bodies" axes="mass" bins="8"
                        execution="asynchronous" placement="auto"
                        n_use="1" offset="3"/>
            </sensei>
        """)
        child = ca.children[0]
        assert child.placement.mode is PlacementMode.AUTO
        assert child.resolve_device() == 3
        ca.execute(make_adaptor())
        ca.finalize()
        assert child.timings[0].method is ExecutionMethod.ASYNCHRONOUS

    def test_devices_per_node_alias(self):
        ca = ConfigurableAnalysis(xml="""
            <sensei>
              <analysis type="data_binning" mesh="m" axes="a" bins="8"
                        placement="auto" devices_per_node="2"/>
            </sensei>
        """)
        assert ca.children[0].placement.n_use == 2

    def test_manual_placement(self):
        ca = ConfigurableAnalysis(xml="""
            <sensei>
              <analysis type="data_binning" mesh="m" axes="a" bins="8"
                        placement="manual" device="2"/>
            </sensei>
        """)
        assert ca.children[0].resolve_device() == 2

    def test_manual_placement_requires_device(self):
        with pytest.raises(ConfigError, match="device"):
            ConfigurableAnalysis(xml="""
                <sensei>
                  <analysis type="data_binning" mesh="m" axes="a" bins="8"
                            placement="manual"/>
                </sensei>
            """)

    def test_host_placement(self):
        ca = ConfigurableAnalysis(xml="""
            <sensei>
              <analysis type="data_binning" mesh="m" axes="a" bins="8" placement="host"/>
            </sensei>
        """)
        assert ca.children[0].resolve_device() == HOST_DEVICE_ID

    def test_misspelt_common_attribute_rejected(self):
        """It used to parse and silently run lockstep."""
        with pytest.raises(ConfigError, match="data_binning.*exection"):
            ConfigurableAnalysis(xml="""
                <sensei>
                  <analysis type="data_binning" mesh="bodies" axes="mass" bins="8"
                            exection="asynchronous"/>
                </sensei>
            """)

    @pytest.mark.parametrize("xml, match", [
        ('type="data_binning" mesh="m" axes="x" binz="4"', "unknown.*binz"),
        ('type="data_binning" mesh="m" axes="x" low="zero"', "'low'.*float"),
        ('type="data_binning" axes="x"', "requires attribute 'mesh'"),
        ('type="data_binning" mesh="m" axes="x" bins="4,x"', "'bins'.*int list"),
        ('type="data_binning" mesh="m" n_use="2" devices_per_node="2"',
         "unknown.*n_use"),
        ('type="data_binning" mesh="m" axes="x" frequency="2"',
         "unknown.*frequency"),
    ])
    def test_backend_attribute_errors_name_element_and_attribute(
        self, xml, match
    ):
        with pytest.raises(ConfigError, match=match) as err:
            ConfigurableAnalysis(xml=f"<sensei><analysis {xml}/></sensei>")
        assert "<analysis type=" in str(err.value)

    def test_backend_attributes_reach_the_backend_typed(self):
        ca = ConfigurableAnalysis(xml="""
            <sensei>
              <analysis type="data_binning" mesh="m" axes="x, y" bins="7"
                        low="-1.5,0" high="2,1e3" name="b" strategy="sorted"
                        variables="mass:sum, vx : max"/>
            </sensei>
        """)
        (binning,) = ca.children
        ax, ay = binning.binner.axes
        assert binning.name == "b"
        assert (ax.column, ax.n_bins, ax.low, ax.high) == ("x", 7, -1.5, 2.0)
        assert (ay.column, ay.n_bins, ay.low, ay.high) == ("y", 7, 0.0, 1e3)
        assert binning.binner.device_strategy is BinningStrategy.SORTED
        assert [(r.op, r.variable) for r in binning.binner.requests] == [
            (ReductionOp.COUNT, None), (ReductionOp.SUM, "mass"),
            (ReductionOp.MAX, "vx"),
        ]

    def test_unknown_type(self):
        with pytest.raises(ConfigError, match="unknown analysis type"):
            ConfigurableAnalysis(xml="<sensei><analysis type='nope'/></sensei>")

    def test_other_backend_types_name_the_type_and_the_one_supported(self):
        with pytest.raises(
            ConfigError, match="'histogram'.*data_binning is the only type"
        ):
            ConfigurableAnalysis(xml="""
                <sensei>
                  <analysis type="histogram" mesh="m" array="a" bins="8"/>
                </sensei>
            """)

    @pytest.mark.parametrize("xml, match", [
        ('type="histgram" enabled="0" binz="4"', "'histgram'.*only type"),
        ('type="data_binning" enabled="0" mesh="m" exection="lockstep"',
         "unknown.*exection"),
    ])
    def test_a_disabled_element_is_checked_too(self, xml, match):
        """A typo fails when the document is read, not on the day the
        element is enabled."""
        with pytest.raises(ConfigError, match=match):
            ConfigurableAnalysis(xml=f"<sensei><analysis {xml}/></sensei>")

    def test_frequency_is_not_an_attribute(self):
        """Every step is analysed; there is no cadence to configure."""
        with pytest.raises(
            ConfigError, match="<analysis type='data_binning'>.*'frequency'"
        ):
            ConfigurableAnalysis(xml="""
                <sensei>
                  <analysis type="data_binning" mesh="m" axes="x" bins="8"
                            frequency="2"/>
                </sensei>
            """)

    def test_binning_validation_errors(self):
        with pytest.raises(ConfigError, match="axes"):
            ConfigurableAnalysis(xml="""
                <sensei><analysis type="data_binning" mesh="m"/></sensei>
            """)
        with pytest.raises(ConfigError, match="bin counts"):
            ConfigurableAnalysis(xml="""
                <sensei><analysis type="data_binning" mesh="m"
                         axes="x,y" bins="1,2,3"/></sensei>
            """)
        with pytest.raises(ConfigError, match="name:op"):
            ConfigurableAnalysis(xml="""
                <sensei><analysis type="data_binning" mesh="m"
                         axes="x" bins="4" variables="mass"/></sensei>
            """)

    def test_binning_strategy_attribute(self):
        ca = ConfigurableAnalysis(xml="""
            <sensei>
              <analysis type="data_binning" mesh="m" axes="x" bins="8"
                        strategy="sorted"/>
            </sensei>
        """)
        assert ca.children[0].binner.device_strategy is BinningStrategy.SORTED

    def test_bad_strategy_rejected(self):
        from repro.errors import BinningError

        with pytest.raises(BinningError):
            ConfigurableAnalysis(xml="""
                <sensei>
                  <analysis type="data_binning" mesh="m" axes="x" bins="8"
                            strategy="quantum"/>
                </sensei>
            """)

    def test_single_bin_count_broadcast(self):
        ca = ConfigurableAnalysis(xml="""
            <sensei>
              <analysis type="data_binning" mesh="bodies" axes="x,y" bins="256"/>
            </sensei>
        """)
        binner = ca.children[0].binner
        assert [a.n_bins for a in binner.axes] == [256, 256]

    def test_xor_of_xml_and_path(self, tmp_path):
        with pytest.raises(ConfigError):
            ConfigurableAnalysis()
        p = tmp_path / "cfg.xml"
        p.write_text("<sensei/>")
        with pytest.raises(ConfigError):
            ConfigurableAnalysis(xml="<sensei/>", path=p)
        assert ConfigurableAnalysis(path=p).children == []

    def test_paper_nine_coordinate_systems(self):
        """The evaluation's layout: 9 binning operator instances, each a
        separate <analysis> element orchestrated sequentially."""
        pairs = [("x", "y"), ("x", "z"), ("y", "z"),
                 ("x", "vx"), ("y", "vy"), ("z", "vz"),
                 ("vx", "vy"), ("vx", "vz"), ("vy", "vz")]
        xml = "<sensei>" + "".join(
            f'<analysis type="data_binning" mesh="bodies" '
            f'axes="{a},{b}" bins="16,16" placement="host"/>'
            for a, b in pairs
        ) + "</sensei>"
        ca = ConfigurableAnalysis(xml=xml)
        assert len(ca.children) == 9
