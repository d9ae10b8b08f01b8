/**
 * @file
 * Minimal linear algebra for the graphics pipeline: column-vector
 * Vec2/3/4 and a column-major Mat4 with the usual transform helpers.
 */

#ifndef EMERALD_CORE_MATH_HH
#define EMERALD_CORE_MATH_HH

#include <array>
#include <cmath>

namespace emerald::core
{

struct Vec2
{
    float x = 0.0f, y = 0.0f;
};

struct Vec3
{
    float x = 0.0f, y = 0.0f, z = 0.0f;

    Vec3 operator+(const Vec3 &o) const { return {x + o.x, y + o.y,
                                                  z + o.z}; }
    Vec3 operator-(const Vec3 &o) const { return {x - o.x, y - o.y,
                                                  z - o.z}; }
    Vec3 operator*(float s) const { return {x * s, y * s, z * s}; }
};

inline float
dot(const Vec3 &a, const Vec3 &b)
{
    return a.x * b.x + a.y * b.y + a.z * b.z;
}

inline Vec3
cross(const Vec3 &a, const Vec3 &b)
{
    return {a.y * b.z - a.z * b.y, a.z * b.x - a.x * b.z,
            a.x * b.y - a.y * b.x};
}

inline float
length(const Vec3 &v)
{
    return std::sqrt(dot(v, v));
}

inline Vec3
normalize(const Vec3 &v)
{
    float len = length(v);
    return len > 0.0f ? v * (1.0f / len) : v;
}

struct Vec4
{
    float x = 0.0f, y = 0.0f, z = 0.0f, w = 0.0f;
};

/** Column-major 4x4 matrix: m[col][row]. */
struct Mat4
{
    std::array<std::array<float, 4>, 4> m = {};

    static Mat4 identity();
    static Mat4 translate(const Vec3 &t);
    static Mat4 scale(const Vec3 &s);
    static Mat4 rotateX(float radians);
    static Mat4 rotateZ(float radians);
    /** Right-handed perspective projection (GL convention). */
    static Mat4 perspective(float fovy_radians, float aspect,
                            float znear, float zfar);
    static Mat4 lookAt(const Vec3 &eye, const Vec3 &center,
                       const Vec3 &up);

    Mat4 operator*(const Mat4 &o) const;
    Vec4 operator*(const Vec4 &v) const;

    /** Flatten column-major into @p out[16] (shader constants). */
    void toColumnMajor(float *out) const;
};

} // namespace emerald::core

#endif // EMERALD_CORE_MATH_HH
