#include <gtest/gtest.h>
#include "soc/soc_top.hh"

using namespace emerald;

TEST(SocSmoke, TwoFramesBaseline) {
    soc::SocParams p;
    p.model = scenes::WorkloadId::M2_Cube;
    p.frames = 2;
    p.fbWidth = 192;
    p.fbHeight = 144;
    p.cpuPrepRequests = 300;
    soc::SocTop soc(p, SimulationBuilder());
    soc.run(ticksFromMs(500.0));
    ASSERT_EQ(soc.app().frames().size(), 2u);
    EXPECT_GT(soc.app().frames()[1].gpuTime(), 0u);
    EXPECT_GT(soc.memory().totalBytes(), 100000u);
    EXPECT_GT(soc.memory().bytesFor(TrafficClass::Display), 10000u);
    EXPECT_GT(soc.memory().bytesFor(TrafficClass::Cpu), 10000u);
}

TEST(SocSmoke, DashAndHmcRun) {
    for (auto cfg : {soc::MemConfig::DCB, soc::MemConfig::HMC}) {
        soc::SocParams p;
        p.memConfig = cfg;
        p.model = scenes::WorkloadId::M4_Triangles;
        p.frames = 2;
        p.fbWidth = 192;
        p.fbHeight = 144;
        p.cpuPrepRequests = 300;
        soc::SocTop soc(p, SimulationBuilder());
        soc.run(ticksFromMs(500.0));
        EXPECT_EQ(soc.app().frames().size(), 2u) << soc::memConfigName(cfg);
    }
}
