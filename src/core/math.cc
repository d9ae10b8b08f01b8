#include "core/math.hh"

namespace emerald::core
{

Mat4
Mat4::identity()
{
    Mat4 r;
    for (int i = 0; i < 4; ++i)
        r.m[i][i] = 1.0f;
    return r;
}

Mat4
Mat4::translate(const Vec3 &t)
{
    Mat4 r = identity();
    r.m[3][0] = t.x;
    r.m[3][1] = t.y;
    r.m[3][2] = t.z;
    return r;
}

Mat4
Mat4::scale(const Vec3 &s)
{
    Mat4 r;
    r.m[0][0] = s.x;
    r.m[1][1] = s.y;
    r.m[2][2] = s.z;
    r.m[3][3] = 1.0f;
    return r;
}

Mat4
Mat4::rotateX(float a)
{
    Mat4 r = identity();
    float c = std::cos(a), s = std::sin(a);
    r.m[1][1] = c;
    r.m[2][1] = -s;
    r.m[1][2] = s;
    r.m[2][2] = c;
    return r;
}

Mat4
Mat4::rotateZ(float a)
{
    Mat4 r = identity();
    float c = std::cos(a), s = std::sin(a);
    r.m[0][0] = c;
    r.m[1][0] = -s;
    r.m[0][1] = s;
    r.m[1][1] = c;
    return r;
}

Mat4
Mat4::perspective(float fovy, float aspect, float znear, float zfar)
{
    Mat4 r;
    float f = 1.0f / std::tan(fovy * 0.5f);
    r.m[0][0] = f / aspect;
    r.m[1][1] = f;
    r.m[2][2] = (zfar + znear) / (znear - zfar);
    r.m[2][3] = -1.0f;
    r.m[3][2] = 2.0f * zfar * znear / (znear - zfar);
    return r;
}

Mat4
Mat4::lookAt(const Vec3 &eye, const Vec3 &center, const Vec3 &up)
{
    Vec3 f = normalize(center - eye);
    Vec3 s = normalize(cross(f, up));
    Vec3 u = cross(s, f);
    Mat4 r = identity();
    r.m[0][0] = s.x; r.m[1][0] = s.y; r.m[2][0] = s.z;
    r.m[0][1] = u.x; r.m[1][1] = u.y; r.m[2][1] = u.z;
    r.m[0][2] = -f.x; r.m[1][2] = -f.y; r.m[2][2] = -f.z;
    r.m[3][0] = -dot(s, eye);
    r.m[3][1] = -dot(u, eye);
    r.m[3][2] = dot(f, eye);
    return r;
}

Mat4
Mat4::operator*(const Mat4 &o) const
{
    Mat4 r;
    for (int c = 0; c < 4; ++c) {
        for (int row = 0; row < 4; ++row) {
            float sum = 0.0f;
            for (int k = 0; k < 4; ++k)
                sum += m[k][row] * o.m[c][k];
            r.m[c][row] = sum;
        }
    }
    return r;
}

Vec4
Mat4::operator*(const Vec4 &v) const
{
    Vec4 r;
    r.x = m[0][0] * v.x + m[1][0] * v.y + m[2][0] * v.z + m[3][0] * v.w;
    r.y = m[0][1] * v.x + m[1][1] * v.y + m[2][1] * v.z + m[3][1] * v.w;
    r.z = m[0][2] * v.x + m[1][2] * v.y + m[2][2] * v.z + m[3][2] * v.w;
    r.w = m[0][3] * v.x + m[1][3] * v.y + m[2][3] * v.z + m[3][3] * v.w;
    return r;
}

void
Mat4::toColumnMajor(float *out) const
{
    for (int c = 0; c < 4; ++c)
        for (int row = 0; row < 4; ++row)
            out[c * 4 + row] = m[c][row];
}

} // namespace emerald::core
