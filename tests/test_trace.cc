#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>

#include "core/trace.hh"
#include "scenes/shaders.hh"
#include "scenes/workloads.hh"
#include "sim/serialize/serialize.hh"
#include "soc/configs.hh"

using namespace emerald;
using namespace emerald::core;

namespace
{

std::string
tempDir(const std::string &leaf)
{
    return ::testing::TempDir() + "emerald_" + leaf;
}

/** Build a small two-frame trace of a spinning cube. */
Trace
makeCubeTrace(unsigned w, unsigned h, unsigned frames)
{
    scenes::Workload workload =
        scenes::makeWorkload(scenes::WorkloadId::W3_Cube);
    Trace trace;
    trace.fbWidth = w;
    trace.fbHeight = h;
    for (unsigned f = 0; f < frames; ++f) {
        trace.beginFrame();
        TraceDraw draw;
        draw.vsSource = scenes::vertexShaderSource();
        draw.fsSource = scenes::fragmentTexturedSource();
        draw.state.cullBackface = false;
        draw.floatsPerVertex = scenes::vertexFloats;
        draw.numVaryings = scenes::standardVaryings;
        draw.vertexData = workload.mesh.data();
        draw.constants.resize(24, 0.0f);
        workload.camera
            .viewProj(f, static_cast<float>(w) / static_cast<float>(h))
            .toColumnMajor(draw.constants.data());
        draw.constants[19] = 0.4f;
        TraceTexture tex;
        tex.unit = 0;
        tex.width = 32;
        tex.height = 32;
        tex.texels.resize(32 * 32);
        for (unsigned i = 0; i < tex.texels.size(); ++i)
            tex.texels[i] = 0xff000000u | (i * 2654435761u);
        draw.textures.push_back(std::move(tex));
        trace.recordDraw(std::move(draw));
    }
    return trace;
}

/** @p path's bytes. */
std::string
fileBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
}

} // namespace

TEST(Trace, SaveLoadRoundTrip)
{
    Trace trace = makeCubeTrace(64, 48, 2);
    std::string dir = tempDir("trace_roundtrip");
    saveTrace(dir, trace);

    auto loaded = loadTrace(dir);
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(loaded->fbWidth, 64u);
    EXPECT_EQ(loaded->fbHeight, 48u);
    ASSERT_EQ(loaded->frames.size(), 2u);
    ASSERT_EQ(loaded->frames[0].size(), 1u);
    const TraceDraw &orig = trace.frames[0][0];
    const TraceDraw &back = loaded->frames[0][0];
    EXPECT_EQ(back.vsSource, orig.vsSource);
    EXPECT_EQ(back.vertexData, orig.vertexData);
    EXPECT_EQ(back.constants, orig.constants);
    ASSERT_EQ(back.textures.size(), 1u);
    EXPECT_EQ(back.textures[0].texels, orig.textures[0].texels);
    EXPECT_EQ(back.state.cullBackface, false);
    std::filesystem::remove_all(dir);
}

TEST(Trace, FormatPinAndResaveIsByteIdentical)
{
    // The bytes a fixed trace saves to: a listing that renames,
    // retypes or reorders a record moves this CRC. Loading the file
    // and saving it again writes the same bytes.
    std::string dir = tempDir("trace_pin");
    saveTrace(dir, makeCubeTrace(64, 48, 2));
    const std::string bytes = fileBytes(dir + "/data.bin");
    EXPECT_EQ(crc32(bytes.data(), bytes.size()), 0xbd110ddeu);

    auto loaded = loadTrace(dir);
    ASSERT_TRUE(loaded.has_value());
    saveTrace(dir + "_again", *loaded);
    EXPECT_TRUE(bytes == fileBytes(dir + "_again/data.bin"));
    std::filesystem::remove_all(dir);
    std::filesystem::remove_all(dir + "_again");
}

TEST(Trace, CorruptTraceIsRefused)
{
    std::string dir = tempDir("trace_corrupt");
    saveTrace(dir, makeCubeTrace(64, 48, 1));
    ASSERT_TRUE(loadTrace(dir).has_value());

    // Flip one byte in the middle of the section data.
    std::string data = dir + "/data.bin";
    std::fstream f(data, std::ios::in | std::ios::out |
                             std::ios::binary);
    ASSERT_TRUE(f.is_open());
    auto mid = static_cast<std::streamoff>(
        std::filesystem::file_size(data) / 2);
    char byte = 0;
    f.seekg(mid);
    f.get(byte);
    f.seekp(mid);
    f.put(static_cast<char>(byte ^ 0x01));
    f.close();

    EXPECT_FALSE(loadTrace(dir).has_value());
    std::filesystem::remove_all(dir);
}

TEST(Trace, RenamedSectionIsRefusedAsCorrupt)
{
    // Section names live in data.bin's CRC-checked index: renaming
    // one is corruption, refused before any draw is decoded.
    std::string dir = tempDir("trace_renamed");
    saveTrace(dir, makeCubeTrace(64, 48, 1));
    std::string data = dir + "/data.bin";
    std::string bytes;
    {
        std::ifstream in(data, std::ios::binary);
        bytes.assign(std::istreambuf_iterator<char>(in), {});
    }
    auto name = bytes.find("draw0");
    ASSERT_NE(name, std::string::npos);
    std::fstream f(data, std::ios::in | std::ios::out |
                             std::ios::binary);
    f.seekp(static_cast<std::streamoff>(name + 4));
    f.put('7');
    f.close();

    EXPECT_FALSE(loadTrace(dir).has_value());
    std::filesystem::remove_all(dir);
}

TEST(Trace, LoadRejectsGarbage)
{
    std::string path = "/tmp/emerald_trace_garbage.etr";
    std::FILE *f = std::fopen(path.c_str(), "wb");
    std::fputs("this is not a trace", f);
    std::fclose(f);
    EXPECT_FALSE(loadTrace(path).has_value());
    EXPECT_FALSE(loadTrace("/tmp/missing_file.etr").has_value());
    std::remove(path.c_str());
}

TEST(Trace, ReplayIsDeterministic)
{
    Trace trace = makeCubeTrace(96, 64, 2);

    auto run = [&](const Trace &t) {
        soc::StandaloneGpu rig(96, 64, soc::caseStudy2GpuParams(),
                               soc::caseStudy2MemParams(),
                               SimulationBuilder());
        TracePlayer player(rig.pipeline(), t,
                           rig.functionalMemory());
        std::vector<std::uint64_t> hashes;
        for (unsigned f = 0; f < player.frameCount(); ++f) {
            bool done = false;
            player.playFrame(f, [&](const FrameStats &) {
                done = true;
            });
            EXPECT_TRUE(rig.runUntil([&] { return done; }));
            hashes.push_back(player.framebuffer().colorHash());
        }
        return hashes;
    };

    auto direct = run(trace);

    // Through a save/load round trip the frames must be identical.
    std::string dir = tempDir("trace_replay");
    saveTrace(dir, trace);
    auto loaded = loadTrace(dir);
    ASSERT_TRUE(loaded.has_value());
    auto replayed = run(*loaded);
    EXPECT_EQ(direct, replayed);
    EXPECT_EQ(direct.size(), 2u);
    EXPECT_NE(direct[0], direct[1]); // Camera moved between frames.
    std::filesystem::remove_all(dir);
}

TEST(Trace, MultiDrawFramesReplay)
{
    // A frame with two draws (second translucent over the first).
    Trace trace = makeCubeTrace(64, 48, 1);
    TraceDraw overlay = trace.frames[0][0];
    overlay.fsSource = scenes::fragmentTranslucentSource();
    overlay.state.blend = true;
    overlay.state.depthWrite = false;
    overlay.constants[20] = 0.5f;
    trace.frames[0].push_back(std::move(overlay));

    soc::StandaloneGpu rig(64, 48, soc::caseStudy2GpuParams(),
                           soc::caseStudy2MemParams(), SimulationBuilder());
    TracePlayer player(rig.pipeline(), trace, rig.functionalMemory());
    bool done = false;
    FrameStats stats;
    player.playFrame(0, [&](const FrameStats &s) {
        stats = s;
        done = true;
    });
    ASSERT_TRUE(rig.runUntil([&] { return done; }));
    EXPECT_GT(stats.fragments, 100u);
}
